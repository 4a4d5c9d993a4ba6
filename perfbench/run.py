"""Benchmark of impulse_geo: one workload per call, one JSON result line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload crossing_ensemble --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics of ``BENCHMARK.json``.  The workload runs in a fresh interpreter
(``worker.py``) against the package in ``src/``; set-up is timed in
separate fresh interpreters as well.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a readable report, and the full record, with the machine, goes to
``.perfbench_out/``.  The exit code is 0 only if every check passed.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("crossing_ensemble", "picard_certify", "cli_sweep", "user_metric")
SETUP_SAMPLES = 4    # fresh interpreters timed for set-up, besides the worker
TIME_LIMIT = 170.0   # seconds for the whole call


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(),
            "cpu_pinning": "not used", "frequency_control": "not used"}


def worker(args, workdir, deadline, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir, *extra]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               TMPDIR=workdir)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("the workload did not finish within the time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """Highest whole percentile with at least 10 tasks above it."""
    n = len(latencies)
    if n < 20:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    ordered = sorted(latencies)
    return p, ordered[math.ceil(p / 100.0 * n) - 1]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.time() + TIME_LIMIT
    if not os.path.isfile(os.path.join(ROOT, "src", "impulse_geo",
                                       "__init__.py")):
        fail(f"no impulse_geo package under {os.path.join(ROOT, 'src')}")
    end_to_end, per_layer = declared_metrics()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    # set-up is timed before and after the run, at two moments of the
    # machine's load, and the median taken
    setups = [worker(args, workdir, deadline, "--setup-only")
              for _ in range(SETUP_SAMPLES // 2)]
    run_args = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans", os.path.join(OUT, f"{tag}-spans.json")]
    res = worker(args, workdir, deadline, *run_args)
    setups.append(res)
    setups += [worker(args, workdir, deadline, "--setup-only")
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    setup_s = statistics.median(s["setup_s"] for s in setups)
    import_s = statistics.median(s["import_s"] for s in setups)

    attempted, failed = res["attempted"], res["failed"]
    details = {"failed_frac": failed / attempted, "setup_samples": len(setups)}
    if args.trace:
        metrics = res["per_layer"]
        metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
        declared = per_layer
        details.update(passes=res["passes"], counts_repeat=res["counts_repeat"],
                       anchor=res["anchor"])
    else:
        walls, all_lat, rels = res["round_walls"], res["latencies"], res["rels"]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_rel": {"value": statistics.median(res["round_rels"]),
                          "unit": "ref"},
            "task_p50_rel": {"value": statistics.median(rels), "unit": "ref"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
        declared = end_to_end
        # raw times, which drift with the machine's speed: reported, not
        # declared
        details.update(
            rounds=len(walls), tasks=len(all_lat),
            wall_s=statistics.median(walls),
            task_p50_ms=1e3 * statistics.median(all_lat),
            ref_ms=1e3 * statistics.median(t / r for t, r in
                                           zip(all_lat, rels)))
        t = tail(all_lat)
        if t is not None:
            details["task_tail_ms"] = {"value": 1e3 * t[1], "percentile": t[0],
                                       "samples": len(all_lat)}
        t = tail(rels)
        if t is not None:
            details["task_tail_rel"] = {"value": t[1], "percentile": t[0],
                                        "samples": len(rels)}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != declared:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
             f"{sorted(declared.items())}")

    correct = failed == 0 and not res["failures"]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": dict(machine(), numpy=res.get("numpy"),
                              scipy=res.get("scipy")),
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "details": details,
              "round_walls": res.get("round_walls"),
              "round_rels": res.get("round_rels"),
              "task_rels": res.get("rels"),
              "failures": res["failures"][:20]}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"machine={json.dumps(record['machine'])}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    for key, value in details.items():
        print(f"# {key}: {json.dumps(value)}")
    for msg in res["failures"][:20]:
        print(f"# FAILED: {msg}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
