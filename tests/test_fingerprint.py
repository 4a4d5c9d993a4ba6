"""``tools/fingerprint.py`` must give the same digest for the same work.

A bit-identity check between two trees is only as good as the digest's
own repeatability within one tree.
"""

import os
import sys

import numpy as np

from impulse_geo import scenarios
from impulse_geo.errors import IntegrationFailure

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tools"))
import fingerprint  # noqa: E402


def test_two_digests_of_one_scenario_agree():
    scen = scenarios.builtin_scenarios()[7]  # sphere, gaussian bump
    first = fingerprint.trajectories([scen])
    assert fingerprint.trajectories([scen]) == first
    assert len(first) == 64
    assert fingerprint.trajectories(scenarios.builtin_scenarios()[:1]) != first

    # every group runs end to end: one that stops working fails here
    for name, group in fingerprint.GROUPS.items():
        assert len(group()) == 64, name


def test_failing_runs_fail_as_named():
    # the failures group checks the bits of the failure paths only while
    # its runs still fail there; each failure keeps an array state
    for name, run in fingerprint.failing_runs().items():
        try:
            result = run()
        except IntegrationFailure as exc:
            result = [exc]
        failed = [row for row in result
                  if isinstance(row, IntegrationFailure)]
        assert len(failed) == 1, name
        exc = failed[0]
        assert exc.reason == ("blow_up" if name.startswith("blow_up")
                              else "chart_escape"), name
        assert exc.phase == {"escape_strip": "strip",
                             "escape_post": "post",
                             "blow_up": "strip",
                             "blow_up_ensemble": "strip"}.get(
                                 name, "background"), name
        assert isinstance(exc.state, np.ndarray), name
        assert exc.state.shape == (6,) and exc.state.dtype == float, name
        if name.startswith("escape"):
            assert exc.diagnostics.n_rejected > 0, name
        if name.startswith("initial"):
            assert exc.partial is None and exc.u == 0.0, name
