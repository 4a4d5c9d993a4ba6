"""The four benchmark workloads: seeded inputs, tasks and output checks.

Every workload is a closed loop with one caller.  Its tasks come in
rounds: one round is one pass over the workload's fixed task cycle (the
nine built-in scenarios, the three built-in manifolds, or the four
user-metric task kinds), with inputs drawn from ``--seed`` and the round
number, so the same seed always gives the same inputs.

``run(task)`` is the timed part and calls the library only through module
attributes (``dynamics.integrate_impulsive_geodesic`` and so on), so the
spans that ``tracing`` installs see every call.  ``check(task, out)`` is
untimed and returns the failed correctness checks as messages.
"""

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from impulse_geo import dynamics, existence, geometry, profiles, scenarios
from impulse_geo.dynamics import InitialData

# the ROADMAP baseline trajectory: sphere, gaussian bump, eps = 0.01, u_end = 1
ANCHOR = ("sphere_stereographic-gaussian_bump", 0.01, 1.0, 287, 2131)


def anchor_counts():
    """Steps and RHS evaluations of the baseline trajectory."""
    name, eps, u_end, _, _ = ANCHOR
    scen = next(s for s in scenarios.builtin_scenarios() if s.name == name)
    path = dynamics.integrate_impulsive_geodesic(
        scen.model, scen.profile, profiles.mollifier_net(), eps, scen.data,
        u_end)
    return path.diagnostics.n_steps, path.diagnostics.n_rhs


class Workload:
    """Defaults for the hooks only some workloads need."""

    def finish(self):
        """Checks after the timed phase; returns failure messages."""
        return []

    def traced_extras(self):
        """Extra per-layer timings of a traced run."""
        return {}


class CrossingEnsemble(Workload):
    """Criterion-4 crossings: certify a perturbed scenario, then cross it."""

    name = "crossing_ensemble"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.scenarios = scenarios.builtin_scenarios()
        self.net = profiles.mollifier_net()

    def round_inputs(self, k):
        rng = np.random.default_rng([self.seed, k])
        return [(s, InitialData(s.data.x0 + rng.uniform(-0.05, 0.05, 2),
                                s.data.xdot0 + rng.uniform(-0.15, 0.15, 2)))
                for s in self.scenarios]

    def _consistent_crossing(self, scen, data):
        # the width eps must lie within eps0 of the certificate anchored at
        # its own strip entry, exactly as in acceptance criterion 4
        k = self.net.l1_bound
        base = dynamics.background_path(scen.model, data.x0, data.xdot0,
                                        -1.0, 0.0, rtol=1e-9, atol=1e-9)
        cert = existence.certify(scen.model, scen.profile, base.x_at(0.0),
                                 base.xdot_at(0.0), b=scen.b, c=scen.c, k=k)
        eps = min(0.5, cert.eps0)
        for _ in range(8):
            entry = dynamics.background_path(scen.model, data.x0, data.xdot0,
                                             -1.0, -eps, rtol=1e-9, atol=1e-9)
            ecert = existence.certify(scen.model, scen.profile,
                                      entry.x_at(-eps), entry.xdot_at(-eps),
                                      b=scen.b, c=scen.c, k=k)
            if eps <= ecert.eps0 + 1e-12:
                return eps, ecert
            eps = 0.95 * ecert.eps0
        return None, None

    def run(self, task):
        scen, data = task
        eps, ecert = self._consistent_crossing(scen, data)
        if eps is None:
            return {"consistent": False}
        path = dynamics.integrate_impulsive_geodesic(
            scen.model, scen.profile, self.net, eps, data,
            u_end=max(ecert.alpha - eps, 1.5 * eps))
        us = np.linspace(-eps, min(path.u_end, ecert.alpha - eps), 41)
        dx = float(np.max(np.linalg.norm(path.x_at(us) - ecert.x0, axis=1)))
        dz = float(np.max(np.linalg.norm(path.xdot_at(us) - ecert.xdot0,
                                         axis=1)))
        diag = path.diagnostics
        return {"consistent": True,
                "margin": max(dx - ecert.b, dz - ecert.i2_radius),
                "drift": diag.energy_drift / (1.0 + abs(diag.energy_start))}

    def check(self, task, out):
        name = task[0].name
        if not out["consistent"]:
            return [f"{name}: no self-consistent crossing width"]
        fails = []
        if not out["margin"] <= 1e-9:
            fails.append(f"{name}: containment margin {out['margin']:.3e}")
        if not out["drift"] < 1e-7:
            fails.append(f"{name}: relative energy drift {out['drift']:.3e}")
        return fails


class PicardCertify(Workload):
    """Criterion-5 certificates and Picard solves of perturbed scenarios."""

    name = "picard_certify"
    FLAT = "euclidean-linear"
    # one scenario per chart; together they span the 4001- and 8001-node
    # grids, 2-7 iterations and 1-2 refinements.  All nine scenarios make a
    # 12 s round, too long for a run to hold the rounds its times need.
    SCENARIOS = (FLAT, "hyperbolic_half_plane-gaussian_bump",
                 "sphere_stereographic-gaussian_bump")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.scenarios = [s for s in scenarios.builtin_scenarios()
                          if s.name in self.SCENARIOS]
        self.net = profiles.mollifier_net()

    def round_inputs(self, k):
        rng = np.random.default_rng([self.seed, k])
        tasks = []
        for s in self.scenarios:
            x0 = s.data.x0 + rng.uniform(-0.02, 0.02, 2)
            if s.name == self.FLAT:
                # rotate the unit velocity so that alpha = 2/3 stays exact
                a = rng.uniform(-0.2, 0.2)
                rot = np.array([[math.cos(a), -math.sin(a)],
                                [math.sin(a), math.cos(a)]])
                xdot0 = rot @ s.data.xdot0
            else:
                xdot0 = s.data.xdot0 + rng.uniform(-0.05, 0.05, 2)
            tasks.append((s, InitialData(x0, xdot0)))
        return tasks

    def run(self, task):
        scen, data = task
        net = self.net
        base = dynamics.background_path(scen.model, data.x0, data.xdot0,
                                        -1.0, 0.0)
        cert = existence.certify(scen.model, scen.profile, base.x_at(0.0),
                                 base.xdot_at(0.0), b=scen.b, c=scen.c,
                                 k=net.l1_bound)
        eps = cert.eps0 / 2.0
        entry = dynamics.background_path(scen.model, data.x0, data.xdot0,
                                         -1.0, -eps)
        ecert = existence.certify(scen.model, scen.profile, entry.x_at(-eps),
                                  entry.xdot_at(-eps), b=scen.b, c=scen.c,
                                  k=net.l1_bound)
        alpha = min(cert.alpha, ecert.alpha)
        eps = min(eps, alpha / 2.0)
        res = existence.picard_solve(scen.model, scen.profile, net, eps,
                                     entry.x_at(-eps), entry.xdot_at(-eps),
                                     alpha, tol=1e-10)
        path = dynamics.integrate_impulsive_geodesic(
            scen.model, scen.profile, net, eps, data, u_end=alpha)
        sub = np.linspace(0, len(res.t) - 1, 101).astype(int)
        ts = res.t[sub]
        err = max(float(np.max(np.abs(path.x_at(ts) - res.x[sub]))),
                  float(np.max(np.abs(path.xdot_at(ts) - res.xdot[sub]))))
        return {"err": err, "alpha": cert.alpha,
                "corrective": res.corrective_iterations}

    def check(self, task, out):
        name = task[0].name
        fails = []
        if not out["err"] <= 1e-6:
            fails.append(f"{name}: Picard vs RK disagreement {out['err']:.3e}")
        if name == self.FLAT:
            if not abs(out["alpha"] - 2.0 / 3.0) < 1e-12:
                fails.append(f"{name}: flat alpha {out['alpha']!r} != 2/3")
            if out["corrective"] != 1:
                fails.append(f"{name}: {out['corrective']} corrective "
                             "iterations, expected 1")
        return fails


# one sweep config per built-in manifold: (manifold, profile, data, widths)
_SWEEPS = (
    ({"name": "euclidean", "dim": 2},
     {"name": "gaussian_bump", "amplitude": 1.0, "center": [1.0, 0.0],
      "width": 0.8},
     ([0.0, 0.0], [1.0, 0.0]), 8),
    ({"name": "hyperbolic_half_plane"},
     {"name": "gaussian_bump", "amplitude": 1.0, "center": [0.8, 1.2],
      "width": 0.8},
     ([0.0, 1.0], [0.6, 0.4]), 7),
    ({"name": "sphere_stereographic"},
     {"name": "gaussian_bump", "amplitude": 1.0, "center": [1.0, 0.0],
      "width": 0.8},
     ([0.0, 0.5], [1.0, 0.0]), 6),
)


class CliSweep(Workload):
    """``impulse_geo.cli.main(["sweep", ...])`` on one config per manifold."""

    name = "cli_sweep"

    def __init__(self, seed, workdir):
        from impulse_geo import cli, config
        self.cli = cli
        self.seed = seed
        self.workdir = workdir
        self.first_csvs = {}   # round-0 CSV path -> bytes of its first run
        self.extra_fails = []
        # the schema check every task's config goes through
        for manifold, profile, (x0, xdot0), n in _SWEEPS:
            config.parse_config(json.dumps(
                self._config(manifold, profile, x0, xdot0, n, "probe")))

    def _config(self, manifold, profile, x0, xdot0, n, tag):
        return {
            "schema_version": 1, "manifold": manifold, "profile": profile,
            "net": "mollifier",
            "data": {"x0": list(x0), "xdot0": list(xdot0)},
            # widths halve down to 2e-3; the capped strip step makes every
            # width cost about the same
            "eps_schedule": [2e-3 * 2.0 ** j for j in reversed(range(n))],
            "u_probes": [-0.5, 0.5, 1.0],
            "output": {"csv": os.path.join(self.workdir, f"{tag}.csv")},
        }

    def round_inputs(self, k):
        rng = np.random.default_rng([self.seed, k])
        tasks = []
        for manifold, profile, (x0, xdot0), n in _SWEEPS:
            x0 = np.asarray(x0) + rng.uniform(-0.05, 0.05, 2)
            xdot0 = np.asarray(xdot0) + rng.uniform(-0.1, 0.1, 2)
            # round 0 keeps its own files for the rerun checks
            tag = f"r{min(k, 1)}-{manifold['name']}"
            cfg = self._config(manifold, profile, x0.tolist(), xdot0.tolist(),
                               n, tag)
            path = os.path.join(self.workdir, f"{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            tasks.append((k, path, cfg["output"]["csv"], n))
        return tasks

    def _main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def run(self, task):
        return self._main(["sweep", "--config", task[1], "--workers", "1"])

    def _same_as_first(self, csv):
        with open(csv, "rb") as fh:
            data = fh.read()
        if self.first_csvs.setdefault(csv, data) != data:
            return [f"{csv}: rerun CSV differs from the first run"]
        return []

    def check(self, task, code):
        k, path, csv, n = task
        if code != 0:
            return [f"{path}: exit code {code}"]
        if k == 0:
            fails = self._same_as_first(csv)
            if fails:
                return fails
        with open(csv, encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        if len(rows) != n:
            return [f"{csv}: {len(rows)} rows, expected {n}"]
        # the order column is nan on the first row by design
        if any(math.isnan(float(v)) for row in rows
               for v in row.split(",")[1:4]):
            return [f"{csv}: a sweep row failed"]
        return []

    def _rerun_first_round(self, workers):
        fails = []
        for csv in self.first_csvs:
            path = csv[:-len(".csv")] + ".json"
            code = self._main(["sweep", "--config", path, "--workers", workers])
            fails += ([f"{path}: rerun exit code {code}"] if code != 0
                      else self._same_as_first(csv))
        return fails

    def finish(self):
        """Rerun the first round; the CSVs must match byte for byte."""
        return self.extra_fails + self._rerun_first_round("1")

    def traced_extras(self):
        """Time the first round's sweeps at one worker and at nproc workers."""
        out = {}
        for key, workers in (("cli.sweep_w1_s", "1"),
                             ("cli.sweep_wN_s",
                              str(len(os.sched_getaffinity(0))))):
            t0 = time.perf_counter()
            self.extra_fails += self._rerun_first_round(workers)
            out[key] = time.perf_counter() - t0
        return out


def _sphere_metric(x):
    c = 2.0 / (1.0 + float(x @ x))
    return (c * c) * np.eye(2)


class UserMetric(Workload):
    """The round sphere given only as a metric callback (``from_metric``)."""

    name = "user_metric"
    RADII = (0.25, 0.5, 1.0)
    # three of a round's five tasks are distances, so the median task cost
    # falls among them and not in the gap between two task kinds; one ray
    # keeps the growth task to a third of a round, so a run holds enough
    # rounds for a steady median
    DISTANCES = 3

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model = geometry.from_metric(2, _sphere_metric, name="sphere-user")
        self.reference = geometry.sphere_stereographic()
        self.profile = profiles.gaussian_bump_profile(1.0, [1.0, 0.0], 0.8)
        self.net = profiles.mollifier_net()

    def round_inputs(self, k):
        rng = np.random.default_rng([self.seed, k])
        tasks = []
        for _ in range(self.DISTANCES):
            a = rng.uniform(-0.6, 0.6, 2)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            b = a + 0.5 * np.array([math.cos(angle), math.sin(angle)])
            tasks.append(("distance", a, b))
        xbar = rng.uniform(-0.2, 0.2, 2)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        rays = [np.array([math.cos(angle), math.sin(angle)])]
        tasks.append(("growth", xbar, rays))
        tasks.append(("trajectory",
                      InitialData([0.0, 0.5] + rng.uniform(-0.05, 0.05, 2),
                                  [1.0, 0.0] + rng.uniform(-0.15, 0.15, 2))))
        return tasks

    def _growth(self, model, xbar, rays):
        prof = profiles.radial_power_profile(1.0, 2.0, center=xbar)
        return profiles.classify_growth(prof, model, xbar, rays, self.RADII)

    def _trajectory(self, model, data):
        path = dynamics.integrate_impulsive_geodesic(
            model, self.profile, self.net, 0.01, data, 1.0)
        return path.sample(np.linspace(-1.0, 1.0, 41))

    def run(self, task):
        kind = task[0]
        if kind == "distance":
            return geometry.distance_estimate(self.model, task[1], task[2])
        if kind == "growth":
            return self._growth(self.model, task[1], task[2])
        return self._trajectory(self.model, task[1])

    def check(self, task, out):
        kind = task[0]
        if kind == "distance":
            exact = geometry.distance_estimate(self.reference, task[1], task[2])
            if out.method != "shooting":
                return [f"distance: method {out.method}, expected shooting"]
            if not abs(out.value - exact.value) <= 1e-6:
                return [f"distance: shooting {out.value!r} vs closed form "
                        f"{exact.value!r}"]
            return []
        if kind == "growth":
            ref = self._growth(self.reference, task[1], task[2])
            if (out.classification != ref.classification
                    or not abs(out.exponent - ref.exponent) <= 1e-6):
                return [f"growth: {out.exponent!r} {out.classification} vs "
                        f"{ref.exponent!r} {ref.classification}"]
            return []
        ref = self._trajectory(self.reference, task[1])
        err = float(np.max(np.abs(out - ref)))
        if not err <= 1e-6:
            return [f"trajectory: {err:.3e} from the built-in sphere path"]
        return []


WORKLOADS = {w.name: w for w in (CrossingEnsemble, PicardCertify, CliSweep,
                                 UserMetric)}
