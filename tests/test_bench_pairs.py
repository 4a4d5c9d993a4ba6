"""``tools/bench_pairs.py`` summarizes alternating benchmark pairs."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "tools"))
import bench_pairs  # noqa: E402


def _line(round_rel, setup_s=0.1, correct=True, failed=0):
    """A canned result line of ``perfbench/run.py --trace 0``."""
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "round_rel": {"value": round_rel, "unit": "ref"},
               "task_p50_rel": {"value": round_rel / 4.0, "unit": "ref"},
               "peak_rss_mb": {"value": 42.0, "unit": "MiB"}}
    return {"correct": correct, "attempted": 12, "failed": failed,
            "metrics": metrics}


def test_summary_of_canned_pairs():
    assert bench_pairs.end_to_end_metrics() == [
        "setup_s", "round_rel", "task_p50_rel", "peak_rss_mb"]
    parent = [380.0, 376.0, 390.0, 378.0]
    change = [296.0, 294.0, 391.0, 298.0]
    pairs = [(_line(p), _line(c)) for p, c in zip(parent, change)]
    out = bench_pairs.summarize(pairs, ["round_rel", "peak_rss_mb"])
    assert out["pairs"] == 4 and out["correct"]
    assert out["failed"] == {"p": 0, "n": 0}
    got = out["round_rel"]
    assert got["parent"] == parent and got["change"] == change
    assert got["parent_median"] == 379.0 and got["change_median"] == 297.0
    # numpy's linear quartiles of the parent: 377.5 and 382.5
    assert got["parent_iqr"] == 5.0
    assert got["change_lower_in"] == "3/4"
    assert got["rel_change"] == pytest.approx(297.0 / 379.0 - 1.0, abs=1e-4)
    # lower in 3 of 4 pairs is short of 9 in 10
    assert got["gain_shown"] is False
    assert out["peak_rss_mb"]["change_lower_in"] == "0/4"
    assert out["peak_rss_mb"]["rel_change"] == 0.0
    assert out["peak_rss_mb"]["gain_shown"] is False


@pytest.mark.parametrize("change, shown", [
    # lower in 10 of 10, by 20 against an IQR of 3.5
    ([80.0] * 10, True),
    # lower in 9 of 10 is enough
    ([80.0] * 9 + [110.0], True),
    # lower in 8 of 10 is not
    ([80.0] * 8 + [110.0] * 2, False),
    # lower in 9 of 10, but the medians differ by 3, within the IQR
    ([97.0] * 10, False),
    # ... and by exactly the IQR is not more than it
    ([96.5] * 10, False),
    # ... by just over it is
    ([96.4] * 10, True),
], ids=["10of10", "9of10", "8of10", "within-iqr", "at-iqr", "over-iqr"])
def test_gain_shown_follows_the_rule(change, shown):
    # the parent's median is 100.0 and its linear quartiles 98.25 and 101.75
    parent = [97.0, 103.0, 100.0, 98.0, 102.0, 99.0, 101.0, 95.0, 105.0,
              100.0]
    pairs = [(_line(p), _line(c)) for p, c in zip(parent, change)]
    got = bench_pairs.summarize(pairs, ["round_rel"])["round_rel"]
    assert got["parent_median"] == 100.0 and got["parent_iqr"] == 3.5
    assert got["gain_shown"] is shown


def test_summary_flags_incorrect_and_missing_runs():
    metrics = ["round_rel"]
    pairs = [(_line(300.0), _line(290.0, correct=False, failed=2)),
             (_line(310.0), _line(280.0))]
    out = bench_pairs.summarize(pairs, metrics)
    assert not out["correct"]
    assert out["failed"] == {"p": 0, "n": 2}
    assert out["round_rel"]["change_lower_in"] == "2/2"
    # a run that gave no result line drops its pair from the metrics
    out = bench_pairs.summarize([(None, _line(290.0))] + pairs[1:], metrics)
    assert not out["correct"] and out["pairs"] == 2
    assert out["round_rel"]["parent"] == [310.0]
    out = bench_pairs.summarize([(None, None)], metrics)
    assert out["round_rel"] is None and not out["correct"]
