"""``tools/bench_pairs.py`` summarizes alternating benchmark pairs."""

import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

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


# a benchmark call that starts one worker, records both pids and sleeps
_STUB_RUN = """
import os, subprocess, sys, time
worker = subprocess.Popen([sys.executable, "-c",
                           "import time; time.sleep(60)"])
path = os.environ["STUB_PIDS"]
with open(path + ".part", "w") as fh:
    fh.write(f"{os.getpid()} {worker.pid}")
os.replace(path + ".part", path)
time.sleep(60)
"""


def _stub_repo(root):
    """A git repository with the files ``bench_pairs.py`` reads, whose
    ``perfbench/run.py`` is :data:`_STUB_RUN`."""
    for sub in ("src", "perfbench", "tools"):
        os.makedirs(os.path.join(root, sub))
    with open(os.path.join(root, "src", "stub.py"), "w") as fh:
        fh.write("")
    with open(os.path.join(root, "perfbench", "run.py"), "w") as fh:
        fh.write(_STUB_RUN)
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        json.dump({"end_to_end": [{"name": "round_rel"}]}, fh)
    shutil.copy(bench_pairs.__file__, os.path.join(root, "tools"))
    git = ["git", "-C", root, "-c", "user.name=stub", "-c",
           "user.email=stub@localhost"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "stub"], check=True)


def _alive(pid):
    """Whether ``pid`` runs: neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, IndexError):
        return False
    return state not in ("Z", "X")


def _wait_until(test, seconds, what):
    deadline = time.monotonic() + seconds
    while not test():
        assert time.monotonic() < deadline, what
        time.sleep(0.05)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_sigterm_leaves_no_tree_and_no_benchmark_process(tmp_path):
    root = str(tmp_path / "repo")
    _stub_repo(root)
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    pids = tmp_path / "pids"
    env = dict(os.environ, TMPDIR=str(tmp), STUB_PIDS=str(pids))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(root, "tools", "bench_pairs.py"),
         "HEAD", "--pairs", "1", "--workloads", "cli_sweep"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    stubs = []
    try:
        _wait_until(lambda: pids.exists() or proc.poll() is not None, 30,
                    "the stub benchmark never started")
        assert proc.poll() is None
        stubs = [int(p) for p in pids.read_text().split()]
        assert len(os.listdir(tmp)) == 1  # the trees of the run
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        assert os.listdir(tmp) == []
        for pid in stubs:
            _wait_until(lambda: not _alive(pid), 10, f"{pid} still runs")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in stubs:  # had SIGTERM not ended them
            if _alive(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
