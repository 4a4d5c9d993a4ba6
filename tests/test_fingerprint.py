"""``tools/fingerprint.py`` must give the same digest for the same work.

A bit-identity check between two trees is only as good as the digest's
own repeatability within one tree.
"""

import os
import sys

from impulse_geo import scenarios

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
