"""The benchmark's span tracer must find every entry point it wraps.

``perfbench/tracing.py`` patches module globals and class methods by name;
a refactor that renames or removes one of them would otherwise only show
when someone runs the benchmark with ``--trace 1``.
"""

import os
import sys

from impulse_geo import dynamics, geometry

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
