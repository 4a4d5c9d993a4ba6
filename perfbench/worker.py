"""One workload in a fresh interpreter; started by ``run.py``.

``--setup-only`` times the import of ``impulse_geo`` and the workload's
set-up, then exits.  Otherwise the worker sets up, runs the timed phase
and prints one JSON object as its last line of standard output.

Untraced, the timed phase repeats rounds with fresh seeded inputs for
about ``--seconds``, with the reference kernel of ``reference.py`` timed
between tasks.  Traced, it runs round 0 once untraced, as the
base for the tracing overhead, then repeats the same round with the spans
installed (at least twice, until ``--seconds`` have passed); every pass
must give the same work counts.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

clock = time.perf_counter


def run_round(wl, tasks, latencies, rels, fails, interval=0.1):
    """Run one round; return its task time, its cost in ``ref`` units and
    the number of failed tasks.

    The reference kernel is timed before the first task, after every task
    and, by ``reference.Sampler``, every ``interval`` seconds inside a
    task; the samples inside a task are taken off its time.  A task's cost is its time over
    the median of its own samples and the four kernel times nearest to it,
    two on either side (three at the ends of a round): the median damps
    the jitter of a single kernel timing.
    """
    import reference
    from impulse_geo.errors import ImpulseGeoError
    outputs, lat, inside, refs = [], [], [], [reference.measure()]
    sampler = reference.Sampler(interval)
    for task in tasks:
        t0 = clock()
        with sampler:
            try:
                out = wl.run(task)
            except ImpulseGeoError as exc:
                out = exc
        lat.append(clock() - t0 - sampler.spent)
        inside.append(sampler.samples)
        refs.append(reference.measure())
        outputs.append(out)
    rel = [dt / statistics.median(refs[max(0, i - 1):i + 3] + inside[i])
           for i, dt in enumerate(lat)]
    latencies += lat
    rels += rel
    failed = 0
    for task, out in zip(tasks, outputs):
        msgs = ([f"{type(out).__name__}: {out}"]
                if isinstance(out, ImpulseGeoError) else wl.check(task, out))
        fails += msgs
        failed += bool(msgs)
    return sum(lat), sum(rel), failed


def timed_run(wl, seconds):
    # imported here, not at the top: it imports numpy, whose import
    # belongs to the timed set-up
    import reference
    walls, round_rels, latencies, rels, fails, failed = [], [], [], [], [], 0
    reference.warm_up()
    start = clock()
    k = 0
    # stop when the next round would end more than half a round late
    while k == 0 or clock() - start + 0.5 * last < seconds:
        round_start = clock()
        wall, rel, bad = run_round(wl, wl.round_inputs(k), latencies, rels,
                                   fails)
        last = clock() - round_start
        walls.append(wall)
        round_rels.append(rel)
        failed += bad
        k += 1
    finish = wl.finish()
    fails += finish
    return {"round_walls": walls, "round_rels": round_rels,
            "latencies": latencies, "rels": rels,
            "attempted": len(latencies),
            "failed": min(len(latencies), failed + len(finish)),
            "failures": fails}


def traced_run(wl, seconds, spans_path):
    import tracing
    import workloads

    tasks = wl.round_inputs(0)
    latencies, fails = [], []
    # no kernel samples inside traced tasks, where they would add to the
    # spans; the untraced base round goes without them too
    untraced, _, failed = run_round(wl, tasks, latencies, [], fails, 0)
    tracer = tracing.Tracer().install()
    walls, passes = [], []
    start = clock()
    try:
        while len(walls) < 2 or clock() - start < seconds:
            before = tracer.snapshot()
            wall, _, bad = run_round(wl, tasks, latencies, [], fails, 0)
            after = tracer.snapshot()
            walls.append(wall)
            failed += bad
            passes.append({k: v - before.get(k, 0) for k, v in after.items()})
    finally:
        tracer.uninstall()
    counts_repeat = all(p == passes[0] for p in passes[1:])
    if not counts_repeat:
        fails.append("work counts differ between passes over the same inputs")
    steps, rhs = workloads.anchor_counts()
    want = workloads.ANCHOR[3:]
    if (steps, rhs) != want:
        fails.append(f"anchor canary: {steps} steps and {rhs} RHS "
                     f"evaluations, expected {want[0]} and {want[1]}")
    extras = wl.traced_extras()
    finish = wl.finish()
    fails += finish
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end"],
                   "spans": tracer.finished_records()}, fh)
    metrics = tracing.per_layer_metrics(tracer, passes, walls, untraced, extras)
    return {"per_layer": metrics, "attempted": len(latencies),
            "failed": min(len(latencies), failed + len(finish)),
            "failures": fails, "passes": len(walls),
            "counts_repeat": counts_repeat,
            "anchor": {"steps": steps, "rhs_evals": rhs}}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = clock()
    import impulse_geo
    import_s = clock() - t0
    expected = os.path.join(os.path.realpath(args.root), "src", "impulse_geo")
    found = os.path.dirname(os.path.realpath(impulse_geo.__file__))
    if found != expected:
        print(f"impulse_geo imported from {found}, expected {expected}",
              file=sys.stderr)
        return 2
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = clock() - t0
    import numpy
    import scipy
    result = {"import_s": import_s, "setup_s": setup_s,
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if not args.setup_only:
        if args.trace:
            result.update(traced_run(wl, args.seconds, args.spans))
        else:
            result.update(timed_run(wl, args.seconds))
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
