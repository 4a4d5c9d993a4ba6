"""The benchmark's span tracer must find every entry point it wraps.

``perfbench/tracing.py`` patches module globals and class methods by name;
a refactor that renames or removes one of them would otherwise only show
when someone runs the benchmark with ``--trace 1``.
"""

import os
import sys

import numpy as np

from impulse_geo import dynamics, geometry, limits, profiles, scenarios

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "perfbench"))
import tracing  # noqa: E402


def test_tracer_installs_and_uninstalls():
    originals = (geometry.ManifoldModel.__dict__["_fd_christoffel"],
                 dynamics.solve_rk45)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (geometry.ManifoldModel.__dict__["_fd_christoffel"],
            dynamics.solve_rk45) == originals


def test_tracer_counts_an_ensemble_study():
    # a study integrates its widths as one ensemble; the work counts the
    # tracer reads from the solver stats must stay plain integers
    tracer = tracing.Tracer()
    tracer.install()
    try:
        limits.convergence_study(
            geometry.hyperbolic_half_plane(),
            profiles.gaussian_bump_profile(1.0, [0.8, 1.2], 0.8),
            profiles.mollifier_net(),
            dynamics.InitialData([0.0, 1.0], [0.6, 0.4]), [0.1, 0.05],
            [-0.5, 0.5, 1.0])
    finally:
        tracer.uninstall()
    for key in ("odesolve.steps", "odesolve.rhs_evals"):
        assert type(tracer.counts[key]) is int and tracer.counts[key] > 0
    assert tracer.calls("dynamics.field_strip") > 0


def test_tracer_counts_a_single_trajectory():
    # the tracer reads the step counts of a single trajectory from the
    # stats of dynamics.solve_rk45 and names its field by the phase keyword;
    # the anchor trajectory: sphere, gaussian bump, eps = 0.01, u_end = 1
    scen = next(s for s in scenarios.builtin_scenarios()
                if s.name == "sphere_stereographic-gaussian_bump")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        path = dynamics.integrate_impulsive_geodesic(
            scen.model, scen.profile, profiles.mollifier_net(), 0.01,
            scen.data, 1.0)
    finally:
        tracer.uninstall()
    assert tracer.counts["odesolve.steps"] == path.diagnostics.n_steps == 287
    assert tracer.counts["odesolve.rhs_evals"] == path.diagnostics.n_rhs == 2131
    assert tracer.calls("dynamics.field_strip") > 0
    assert tracer.calls("dynamics.field_outside") > 0


def test_tracer_names_a_background_path_by_its_phase():
    # the one "background" phase is traced as field work outside the strip
    tracer = tracing.Tracer()
    tracer.install()
    try:
        path = dynamics.background_path(geometry.hyperbolic_half_plane(),
                                        [0.1, 1.0], [0.6, 0.4], -1.0, 1.0)
    finally:
        tracer.uninstall()
    assert tracer.calls("dynamics.field_outside") > 0
    assert tracer.calls("dynamics.field_strip") == 0
    assert tracer.counts["odesolve.steps"] == path.diagnostics.n_steps


def test_tracer_counts_every_step_of_a_study():
    # the solver calls of a study: its two-width ensemble and the two
    # background branches of its sharp limit
    model = geometry.hyperbolic_half_plane()
    prof = profiles.gaussian_bump_profile(1.0, [0.8, 1.2], 0.8)
    net = profiles.mollifier_net()
    data = dynamics.InitialData([0.0, 1.0], [0.6, 0.4])
    widths, probes = [0.1, 0.05], np.array([-0.5, 0.5, 1.0])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        table = limits.convergence_study(model, prof, net, data, widths,
                                         probes)
    finally:
        tracer.uninstall()
    assert not table.failed.any()
    rows = dynamics._integrate_ensemble(
        model, prof, net, widths, data,
        [limits._u_end(probes, eps) for eps in widths])
    limit = limits.limit_geodesic(model, prof, data,
                                  u_end=limits._u_end(probes, max(widths)))
    paths = rows + [limit.base_path, limit.refracted_path]
    assert tracer.counts["odesolve.steps"] == sum(
        path.diagnostics.n_steps for path in paths)
    assert tracer.counts["odesolve.rhs_evals"] == sum(
        path.diagnostics.n_rhs for path in paths)


def test_tracer_counts_the_work_of_one_shooting_distance(monkeypatch):
    # the sphere given by its metric alone shoots; each Newton step that
    # misses integrates its 2n-velocity stencil as one ensemble, whose
    # rows do the work of single background paths on the same velocities
    model = geometry.from_metric(
        2, lambda x: 4.0 / (1.0 + float(x @ x)) ** 2 * np.eye(2))
    x, xbar = np.array([0.1, -0.2]), np.array([0.45, 0.15])
    velocities = []
    endpoint = geometry._shooting_endpoint

    def recorded(model, x, w):
        velocities.append(np.array(w, ndmin=2))
        return endpoint(model, x, w)

    monkeypatch.setattr(geometry, "_shooting_endpoint", recorded)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        est = geometry.distance_estimate(model, x, xbar)
    finally:
        tracer.uninstall()
    assert est.method == "shooting"
    centres = [w for w in velocities if len(w) == 1]
    misses = len(centres) - 1
    assert misses > 0 and len(velocities) == 1 + 2 * misses
    assert [len(w) for w in velocities[1::2]] == [4] * misses
    assert tracer.calls("geometry.shooting_integration") == 1 + 2 * misses
    paths = [dynamics.background_path(model, x, w, 0.0, 1.0)
             for w in np.concatenate(velocities)]
    assert tracer.counts["odesolve.steps"] == sum(
        path.diagnostics.n_steps for path in paths)
    assert tracer.counts["odesolve.rhs_evals"] == sum(
        path.diagnostics.n_rhs for path in paths)
