"""Run the benchmark on a parent revision and the working tree in
alternating pairs and summarize the end-to-end metrics.

    python3 tools/bench_pairs.py REF [--workloads W ...] [--seed S]
                                     [--pairs N] [--seconds T] [--out FILE]

Each side runs from its own copy of the tree in a temporary directory: the
parent is ``git archive REF src``, the change is the working tree's
``src/``, and both take the working tree's ``perfbench/`` and
``BENCHMARK.json``, so the two differ in ``src/`` only (as with
``tools/fingerprint_against.sh``).  Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once per
side; pairs 0, 2, 4, ... (counting from 0) run the change first, the odd
pairs the parent.  Within a pair every workload runs in turn, so the
workloads share the machine's drift.

The summary (printed as JSON, and written to FILE with ``--out``) holds,
per workload and per end-to-end metric, each side's values in pair order,
their medians, the parent's interquartile range (numpy's linear
percentiles), how many pairs the change read lower in, and the change of
the median relative to the parent's.  The exit code is 1 if any run was
incorrect or failed, else 0.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("crossing_ensemble", "picard_certify", "cli_sweep", "user_metric")


def end_to_end_metrics(root=ROOT):
    """The names of the end-to-end metrics that ``BENCHMARK.json`` declares."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["end_to_end"]]


def _stats(parent, change):
    lower = sum(c < p for p, c in zip(parent, change))
    q1, q3 = np.percentile(parent, [25, 75])
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {"parent": [round(v, 4) for v in parent],
            "change": [round(v, 4) for v in change],
            "parent_median": round(p_med, 4),
            "change_median": round(c_med, 4),
            "parent_iqr": round(float(q3 - q1), 4),
            "change_lower_in": f"{lower}/{len(parent)}",
            "rel_change": round(c_med / p_med - 1.0, 4)}


def summarize(pairs, metrics):
    """The summary of one workload's pairs.

    ``pairs`` holds one ``(parent, change)`` tuple per pair, each the result
    line of a ``perfbench/run.py`` call (``{"correct", "attempted",
    "failed", "metrics"}``) or None for a run that gave none.  A metric is
    summarized over the pairs where both sides gave a result."""
    done = [(p, c) for p, c in pairs if p is not None and c is not None]
    out = {"pairs": len(pairs)}
    for name in metrics:
        out[name] = (_stats([p["metrics"][name]["value"] for p, _ in done],
                            [c["metrics"][name]["value"] for _, c in done])
                     if done else None)
    out["failed"] = {side: sum(run["failed"] for run in runs
                               if run is not None)
                     for side, runs in zip(("p", "n"), zip(*pairs))}
    out["correct"] = all(run is not None and run["correct"]
                         for pair in pairs for run in pair)
    return out


def _tree(dest, ref):
    """A copy of the tree at ``dest`` whose ``src/`` is that of the git
    revision ``ref``, or of the working tree for None."""
    os.makedirs(dest)
    if ref is None:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    else:
        archive = subprocess.run(["git", "-C", ROOT, "archive", ref, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return dest


def _run(tree, workload, seed, seconds):
    """The result line of one benchmark call in ``tree``, or None."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the parent git revision")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", help="also write the summary to this file")
    args = parser.parse_args(argv)
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", args.ref],
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    metrics = end_to_end_metrics()
    runs = {w: [] for w in args.workloads}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": _tree(os.path.join(tmp, "parent"), sha),
                 "change": _tree(os.path.join(tmp, "change"), None)}
        for i in range(args.pairs):
            order = ("change", "parent") if i % 2 == 0 else ("parent",
                                                               "change")
            for w in args.workloads:
                got = {}
                for side in order:
                    got[side] = _run(trees[side], w, args.seed, args.seconds)
                    value = (None if got[side] is None else
                             got[side]["metrics"]["round_rel"]["value"])
                    print(f"pair {i} {w} {side}: round_rel {value}",
                          file=sys.stderr, flush=True)
                runs[w].append((got["parent"], got["change"]))
    result = {"benchmark": f"perfbench/run.py --seed {args.seed} --seconds "
                           f"{args.seconds} --trace 0",
              "parent": sha, "seed": args.seed,
              "summary": {w: summarize(runs[w], metrics)
                          for w in args.workloads}}
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if all(s["correct"] for s in result["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
