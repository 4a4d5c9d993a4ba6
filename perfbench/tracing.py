"""Span tracing of impulse_geo from outside the package.

``Tracer.install()`` replaces the public entry points of each layer with
timing wrappers (module globals and class methods, in every namespace that
holds a reference) and ``uninstall()`` puts the originals back.  Nothing
under ``src/`` is edited; an untraced run never installs anything.

Every wrapped call is a span with a name, a start, an end and a parent.
Self time is the span's duration minus the time its child spans cover.
Hot spans (field, Christoffel, chart checks, profile and net calls) are
aggregated per name only, because a run makes millions of them; the
coarser spans are also kept as records ``(id, parent id, name, start,
end)`` for the trace file.  Work counts come from the values the program
already returns: ``solve_rk45`` stats, ``PicardResult`` and
``ConvergenceTable``.
"""

import statistics
import time
from collections import Counter

import numpy as np

from impulse_geo import (artifacts, cli, dynamics, existence, geometry,
                         limits, profiles)

_clock = time.perf_counter

# span names too frequent to keep one record per call
_HOT = {
    "dynamics.field_strip", "dynamics.field_outside", "dynamics.sample",
    "dynamics.lagrangian_energy", "geometry.christoffel", "geometry.contains",
    "geometry.metric", "geometry.inverse_metric", "geometry.fd_christoffel",
    "profiles.f", "profiles.df", "profiles.net_eval", "profiles.metric_gradient",
}
MAX_RECORDS = 100_000


class Tracer:
    def __init__(self):
        self.stack = []          # open frames: [child_time, record_id]
        self.stats = {}          # name -> [calls, inclusive_s, self_s]
        self.counts = Counter()  # work counts read from returned values
        self.open = Counter()    # names of the spans currently open
        self.records = []
        self._patches = []

    # -- spans ---------------------------------------------------------
    def wrap(self, name, fn, after=None, under=None, scope=None):
        """Wrap ``fn`` in a span.

        ``after(result, args, kwargs)`` reads work counts from the result.
        ``under`` counts the calls made while a span named ``under`` is open,
        as ``<name>@<under>``; ``scope`` is an extra name this span holds
        open, so that spans of several names can serve as one ``under``.
        """
        stack, stats, records, open_ = (self.stack, self.stats, self.records,
                                        self.open)
        stats.setdefault(name, [0, 0.0, 0.0])
        record = name not in _HOT
        scoped = f"{name}@{under}" if under else None

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            kept = record and len(records) < MAX_RECORDS
            frame = [0.0, len(records) + 1 if kept else parent]
            if kept:
                records.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            open_[name] += 1
            if scope:
                open_[scope] += 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                open_[name] -= 1
                if scope:
                    open_[scope] -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if kept:
                    records[frame[1] - 1] = (frame[1], parent, name, t0, t1)
                if scoped and open_[under]:
                    self.counts[scoped] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def calls(self, name):
        return self.stats.get(name, (0,))[0]

    def inclusive(self, name):
        return self.stats.get(name, (0, 0.0))[1]

    def layer_self(self, prefix):
        return sum(s[2] for n, s in self.stats.items()
                   if n.split(".")[0] == prefix)

    def snapshot(self):
        """Call and work counts so far, for per-pass differences."""
        snap = {f"calls:{n}": s[0] for n, s in self.stats.items()}
        snap.update(self.counts)
        return snap

    def finished_records(self):
        return [r for r in self.records if r is not None]

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_on(self, name, owners, attr, **kw):
        original = getattr(owners[0], attr)
        traced = self.wrap(name, original, **kw)
        for owner in owners:
            self._patch(owner, attr, traced)

    def install(self):
        counts = self.counts
        M, P, N = geometry.ManifoldModel, profiles.WaveProfile, profiles.DeltaNet
        G = dynamics.GeodesicPath

        def solver_stats(result, args, kwargs):
            stats = result[1]
            counts["odesolve.steps"] += stats["n_steps"]
            counts["odesolve.rejected"] += stats["n_rejected"]
            counts["odesolve.rhs_evals"] += stats["n_rhs"]

        def sampled(result, args, kwargs):
            counts["dynamics.sample_points"] += np.size(args[1])

        def grid_points(result, args, kwargs):
            counts["existence.sup_grid_points"] += len(result)

        def picard(result, args, kwargs):
            counts["existence.picard_iterations"] += result.iterations
            counts["existence.picard_refinements"] += result.refinements

        def rows(result, args, kwargs):
            counts["limits.rows_failed"] += int(result.failed.sum())

        # geometry
        self._span_on("geometry.christoffel", [M], "christoffel_at",
                      under="existence.picard_solve")
        self._span_on("geometry.contains", [M], "contains",
                      under="dynamics.field")
        self._span_on("geometry.metric", [M], "metric_at")
        self._span_on("geometry.inverse_metric", [M], "inverse_metric_at")
        self._span_on("geometry.fd_christoffel", [M], "_fd_christoffel")
        self._span_on("geometry.distance_estimate", [geometry],
                      "distance_estimate")
        self._span_on("geometry.shooting", [geometry], "_shooting_distance")
        self._span_on("geometry.shooting_integration", [geometry],
                      "_shooting_endpoint")
        # profiles
        self._span_on("profiles.f", [P], "f")
        self._span_on("profiles.df", [P], "df")
        self._span_on("profiles.net_eval", [N], "eval")
        self._span_on("profiles.net_eval", [N], "deriv")
        self._span_on("profiles.metric_gradient",
                      [profiles, existence, limits], "metric_gradient")
        self._span_on("profiles.classify_growth", [profiles, cli],
                      "classify_growth")
        # odesolve, entered from dynamics; the field is the ``fun`` it gets
        solve = self.wrap("odesolve.solve_rk45", dynamics.solve_rk45,
                          after=solver_stats)

        def solve_with_traced_field(fun, *args, phase=None, **kwargs):
            name = ("dynamics.field_strip" if phase == "strip"
                    else "dynamics.field_outside")
            field = self.wrap(name, fun, scope="dynamics.field")
            return solve(field, *args, phase=phase, **kwargs)

        self._patch(dynamics, "solve_rk45", solve_with_traced_field)
        # dynamics
        self._span_on("dynamics.integrate", [dynamics],
                      "integrate_impulsive_geodesic")
        self._span_on("dynamics.background_path", [dynamics], "background_path")
        self._span_on("dynamics.energy_diagnostics", [dynamics],
                      "_energy_diagnostics")
        self._span_on("dynamics.lagrangian_energy", [dynamics, artifacts],
                      "lagrangian_energy")
        self._span_on("dynamics.sample", [G], "sample", after=sampled)
        # existence
        self._span_on("existence.certify", [existence], "certify")
        self._span_on("existence.sup_norms", [existence], "estimate_sup_norms")
        self._span_on("existence.ball_grid", [existence], "_ball_grid",
                      after=grid_points)
        self._span_on("existence.picard_solve", [existence], "picard_solve",
                      after=picard)
        self._span_on("existence.picard_grid", [existence], "_picard_on_grid")
        # limits
        self._span_on("limits.limit_geodesic", [limits], "limit_geodesic")
        self._span_on("limits.study_errors", [limits], "study_errors")
        self._span_on("limits.convergence_study", [limits],
                      "convergence_study", after=rows)
        # cli, config and artifacts
        self._span_on("cli.main", [cli], "main")
        for attr in ("load_config", "parse_config", "serialize_config"):
            self._span_on("config.parse", [cli], attr)
        for attr in ("build_model", "build_profile", "build_net", "build_data"):
            self._span_on("config.build", [cli], attr)
        for attr in ("write_meta", "write_csv", "write_path_csv",
                     "write_table_csv", "write_net_report_csv", "write_text",
                     "svg_loglog", "svg_path"):
            self._span_on(f"artifacts.{attr}", [artifacts], attr)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def per_layer_metrics(tracer, passes, walls, untraced_wall, extras):
    """Per-layer metrics of a traced run.

    ``passes`` holds the work counts of each pass over round 0; counts are
    reported per round.  Times are inclusive span times per round, or per
    call in microseconds, taken over all passes.
    """
    n = len(passes)
    c = passes[0]

    def calls(name):
        return c.get(f"calls:{name}", 0)

    def per_round(name):
        return tracer.inclusive(name) / n

    def us_per(seconds, count):
        return 1e6 * seconds / count if count else 0.0

    def us_per_call(name):
        return us_per(tracer.inclusive(name), tracer.calls(name))

    strip = calls("dynamics.field_strip")
    outside = calls("dynamics.field_outside")
    steps = c.get("odesolve.steps", 0)
    rejected = c.get("odesolve.rejected", 0)
    node_evals = c.get("geometry.christoffel@existence.picard_solve", 0)
    rows = [
        ("dynamics.field_strip_calls", strip, "count"),
        ("dynamics.field_strip_us", us_per_call("dynamics.field_strip"), "us"),
        ("dynamics.field_outside_calls", outside, "count"),
        ("dynamics.field_outside_us", us_per_call("dynamics.field_outside"),
         "us"),
        ("dynamics.self_s", tracer.layer_self("dynamics") / n, "s"),
        ("dynamics.sample_us_per_point",
         us_per(tracer.inclusive("dynamics.sample"),
                n * c.get("dynamics.sample_points", 0)), "us"),
        ("odesolve.steps", steps, "count"),
        ("odesolve.rejected", rejected, "count"),
        ("odesolve.rhs_evals", c.get("odesolve.rhs_evals", 0), "count"),
        ("odesolve.accept_ratio",
         steps / (steps + rejected) if steps + rejected else 0.0, "ratio"),
        ("odesolve.self_us_per_step",
         us_per(tracer.layer_self("odesolve"), n * steps), "us"),
        ("geometry.christoffel_calls", calls("geometry.christoffel"), "count"),
        ("geometry.christoffel_us", us_per_call("geometry.christoffel"), "us"),
        ("geometry.contains_calls", calls("geometry.contains"), "count"),
        ("geometry.contains_per_field",
         c.get("geometry.contains@dynamics.field", 0) / (strip + outside)
         if strip + outside else 0.0, "ratio"),
        ("geometry.metric_calls", calls("geometry.metric"), "count"),
        ("geometry.shooting_s", per_round("geometry.shooting"), "s"),
        ("geometry.shooting_integrations",
         calls("geometry.shooting_integration"), "count"),
        ("profiles.df_calls", calls("profiles.df"), "count"),
        ("profiles.df_us", us_per_call("profiles.df"), "us"),
        ("profiles.net_eval_calls", calls("profiles.net_eval"), "count"),
        ("profiles.net_us", us_per_call("profiles.net_eval"), "us"),
        ("profiles.classify_growth_s", per_round("profiles.classify_growth"),
         "s"),
        ("existence.sup_norms_s", per_round("existence.sup_norms"), "s"),
        ("existence.sup_grid_points", c.get("existence.sup_grid_points", 0),
         "count"),
        ("existence.picard_s", per_round("existence.picard_solve"), "s"),
        ("existence.picard_node_evals", node_evals, "count"),
        ("existence.picard_us_per_node_eval",
         us_per(tracer.inclusive("existence.picard_solve"), n * node_evals),
         "us"),
        ("existence.picard_iterations",
         c.get("existence.picard_iterations", 0), "count"),
        ("existence.picard_refinements",
         c.get("existence.picard_refinements", 0), "count"),
        ("limits.limit_geodesic_s", per_round("limits.limit_geodesic"), "s"),
        ("limits.study_errors_s", per_round("limits.study_errors"), "s"),
        ("limits.rows_failed", c.get("limits.rows_failed", 0), "count"),
        ("cli.config_s",
         (tracer.inclusive("config.parse") + tracer.inclusive("config.build"))
         / n, "s"),
        ("artifacts.write_s", tracer.layer_self("artifacts") / n, "s"),
        ("cli.sweep_w1_s", extras.get("cli.sweep_w1_s", 0.0), "s"),
        ("cli.sweep_wN_s", extras.get("cli.sweep_wN_s", 0.0), "s"),
        ("trace.overhead_s", statistics.median(walls) - untraced_wall, "s"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}
