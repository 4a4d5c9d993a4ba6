"""The benchmark's span tracer must find every entry point it wraps.

``perfbench/tracing.py`` patches module globals and class methods by name;
a refactor that renames or removes one of them would otherwise only show
when someone runs the benchmark with ``--trace 1``.
"""

import os
import sys

from impulse_geo import dynamics, geometry, limits, profiles

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
