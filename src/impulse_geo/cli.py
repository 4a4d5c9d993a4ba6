"""Command line interface.

Subcommands operate on a JSON scenario config (see the README for the
schema); selected flags override config values.  Exit codes: 0 on success,
2 on validation errors, 3 on numerical failures.

``sweep`` integrates all widths of its schedule as one ensemble in this
process.  The worker count (from, in order of precedence, the ``--workers``
flag, the ``IMPULSE_GEO_WORKERS`` environment variable, and the config) is
still read and validated, but no longer changes how the sweep runs: one
ensemble beat a pool of worker processes.  Reruns of the same config are
byte-identical.
"""

import argparse
import os
import sys

import numpy as np

from . import artifacts, dynamics, existence, limits
# parse_config is unused here but stays importable as cli.parse_config,
# which the benchmark's tracer (perfbench/tracing.py) wraps
from .config import (build_data, build_model, build_net, build_profile,
                     load_config, parse_config, serialize_config)  # noqa: F401
from .errors import ChartDomainError, ConfigError, NumericalError
from .profiles import classify_growth, verify_strict_delta_net

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="impulse-geo",
        description="Geodesics of impulsive wave geometries: integration, "
                    "existence certificates, and sharp-limit studies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON scenario config")
        p.add_argument("--eps", type=float, default=None,
                       help="override the regularization width")
        p.add_argument("--u-end", type=float, default=None,
                       help="override the final parameter value")
        p.add_argument("--samples", type=int, default=None,
                       help="override the output sample count")
        p.add_argument("--seed", type=int, default=None,
                       help="override the recorded seed")
        p.add_argument("--workers", type=int, default=None,
                       help="override the worker count")
        p.add_argument("--csv", default=None, help="override CSV output path")
        p.add_argument("--svg", default=None, help="override SVG output path")
        p.add_argument("--text", default=None,
                       help="override text output path")
        return p

    add("integrate", "integrate one regularized geodesic and export it")
    add("limit", "construct the sharp-limit geodesic and its coefficients")
    add("certify", "build the fixed-point crossing certificate")
    add("sweep", "convergence study over a width schedule")
    add("verify-net", "check the strict-net properties of the impulse family")
    add("classify-growth", "estimate the radial growth exponent of a profile")
    return parser


def _apply_overrides(cfg, args):
    if args.eps is not None:
        if not 0.0 < args.eps <= 0.5:
            raise ConfigError("eps must lie in (0, 0.5]")
        cfg.eps = args.eps
        cfg.eps_schedule = None
    if args.u_end is not None:
        cfg.u_end = args.u_end
    if args.samples is not None:
        cfg.samples = args.samples
    if args.seed is not None:
        cfg.seed = args.seed
    if args.workers is not None:
        cfg.workers = args.workers
    for key in ("csv", "svg", "text"):
        val = getattr(args, key)
        if val is not None:
            cfg.output[key] = val
    return cfg


def _workers(cfg, flag_value):
    if flag_value is not None:
        return max(1, flag_value)
    env = os.environ.get("IMPULSE_GEO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(
                f"IMPULSE_GEO_WORKERS must be an integer, got {env!r}") from None
    if cfg.workers is not None:
        return max(1, int(cfg.workers))
    return 1


# output formats each subcommand can emit (svg only for paths and tables)
_ALLOWED_OUTPUTS = {
    "integrate": {"csv", "svg"},
    "limit": {"text", "csv"},
    "certify": {"text", "csv"},
    "sweep": {"csv", "svg"},
    "verify-net": {"text", "csv"},
    "classify-growth": {"text"},
}


def _check_outputs(command, cfg):
    allowed = _ALLOWED_OUTPUTS[command]
    bad = sorted(set(cfg.output) - allowed)
    if bad:
        raise ConfigError(
            f"output format '{bad[0]}' is not supported by {command} "
            f"(supported: {', '.join(sorted(allowed))})")


def _artifact(kind, cfg, outputs, summary):
    art = artifacts.RunArtifact(
        kind=kind, outputs=outputs,
        provenance=artifacts.provenance_for(serialize_config(cfg), cfg.seed),
        summary=summary)
    first = next(iter(outputs.values()), None)
    if first:
        artifacts.write_meta(first + ".meta.json", art)
    return art


def _require_eps(cfg):
    if cfg.eps is None:
        raise ConfigError("this command needs a single eps value")
    return cfg.eps


def cmd_integrate(cfg):
    model = build_model(cfg)
    profile = build_profile(cfg)
    net = build_net(cfg)
    data = build_data(cfg, model.dim)
    eps = _require_eps(cfg)
    if not cfg.u_end > eps:
        raise ConfigError(f"u_end must exceed eps, got u_end={cfg.u_end!r} "
                          f"and eps={eps!r}")
    rtol = cfg.tol("rtol", 1e-10)
    atol = cfg.tol("atol", 1e-10)
    path = dynamics.integrate_impulsive_geodesic(
        model, profile, net, eps, data, cfg.u_end, rtol=rtol, atol=atol)
    us = np.linspace(-1.0, cfg.u_end, cfg.samples)
    outputs = {}
    if "csv" in cfg.output:
        artifacts.write_path_csv(cfg.output["csv"], path, us, model,
                                 profile, net, eps)
        outputs["csv"] = cfg.output["csv"]
    if "svg" in cfg.output:
        xs = path.x_at(us)
        comps = [xs[:, i] for i in range(model.dim)] + [path.v_at(us)]
        labels = [f"x{i+1}" for i in range(model.dim)] + ["v"]
        artifacts.svg_path(cfg.output["svg"], us, comps, labels,
                           title="regularized geodesic")
        outputs["svg"] = cfg.output["svg"]
    end = path.state_at(cfg.u_end)
    summary = (f"integrated to u={cfg.u_end:g}; "
               f"x={np.array2string(end.x, precision=6)} v={end.v:.6g}; "
               f"energy drift {path.diagnostics.energy_drift:.3e}")
    print(summary)
    _artifact("path", cfg, outputs, summary)
    return 0


def cmd_limit(cfg):
    model = build_model(cfg)
    profile = build_profile(cfg)
    data = build_data(cfg, model.dim)
    rtol = cfg.tol("rtol", 1e-10)
    atol = cfg.tol("atol", 1e-10)
    lg = limits.limit_geodesic(model, profile, data,
                               u_end=max(cfg.u_end, 1.0),
                               rtol=rtol, atol=atol)
    text = artifacts.limit_text(lg)
    print(text, end="")
    outputs = {}
    if "text" in cfg.output:
        artifacts.write_text(cfg.output["text"], text)
        outputs["text"] = cfg.output["text"]
    if "csv" in cfg.output:
        us = np.linspace(-1.0, lg.u_end, cfg.samples)
        rows = [(float(u), *map(float, lg.x_at(float(u))),
                 *map(float, lg.xdot_at(float(u))), float(lg.v_at(float(u))))
                for u in us]
        header = (["u"] + [f"x{i+1}" for i in range(model.dim)]
                  + [f"xdot{i+1}" for i in range(model.dim)] + ["v"])
        artifacts.write_csv(cfg.output["csv"], header, rows)
        outputs["csv"] = cfg.output["csv"]
    _artifact("report", cfg, outputs, f"jump={lg.jump_coeff!r} "
                                      f"kink={lg.kink_coeff!r}")
    return 0


def cmd_certify(cfg):
    model = build_model(cfg)
    profile = build_profile(cfg)
    net = build_net(cfg)
    data = build_data(cfg, model.dim)
    rtol = cfg.tol("rtol", 1e-10)
    atol = cfg.tol("atol", 1e-10)
    b = float(cfg.existence.get("b", 1.0))
    c = float(cfg.existence.get("c", 1.0))
    grid = int(cfg.existence.get("grid", 9))
    # anchor the certificate at the shock-crossing state of the background
    # trajectory (the strip entry point in the sharp-width limit)
    base = dynamics.background_path(model, data.x0, data.xdot0, -1.0, 0.0,
                                    rtol=rtol, atol=atol)
    cert = existence.certify(model, profile, base.x_at(0.0),
                             base.xdot_at(0.0), b=b, c=c, k=net.l1_bound,
                             grid=grid)
    text = artifacts.certificate_text(cert)
    print(text, end="")
    outputs = {}
    if "text" in cfg.output:
        artifacts.write_text(cfg.output["text"], text)
        outputs["text"] = cfg.output["text"]
    if "csv" in cfg.output:
        rows = [(cert.chart, cert.b, cert.c, cert.k, cert.norm_F1,
                 cert.norm_F2, cert.lip_F1, cert.lip_F2, cert.i2_radius,
                 cert.alpha, cert.eps0)]
        artifacts.write_csv(cfg.output["csv"],
                             ["chart", "b", "c", "K", "norm_F1", "norm_F2",
                              "lip_F1", "lip_F2", "i2_radius", "alpha",
                              "eps0"], rows)
        outputs["csv"] = cfg.output["csv"]
    _artifact("certificate", cfg, outputs,
              f"alpha={cert.alpha!r} eps0={cert.eps0!r}")
    return 0


def cmd_sweep(cfg):
    if not cfg.eps_schedule:
        raise ConfigError("sweep needs an eps_schedule")
    if not cfg.u_probes:
        raise ConfigError("sweep needs u_probes")
    model = build_model(cfg)  # validates the manifold section early
    profile = build_profile(cfg)
    net = build_net(cfg)
    data = build_data(cfg, model.dim)
    schedule = sorted(cfg.eps_schedule, reverse=True)
    probes = np.asarray(cfg.u_probes, dtype=float)
    if np.any(probes == 0.0) or np.any(probes < -1.0):
        raise ConfigError("u_probes must exclude 0 and lie at u >= -1")
    probes_out = probes[np.abs(probes) > max(schedule)]
    if probes_out.size == 0:
        raise ConfigError("no probe clears the widest strip of the schedule")

    table = limits.convergence_study(
        model, profile, net, data, schedule, probes,
        rtol=cfg.tol("rtol", 1e-10), atol=cfg.tol("atol", 1e-10))

    outputs = {}
    if "csv" in cfg.output:
        artifacts.write_table_csv(cfg.output["csv"], table)
        outputs["csv"] = cfg.output["csv"]
    if "svg" in cfg.output:
        artifacts.svg_loglog(cfg.output["svg"], table.eps,
                             {"err_x": table.err_x,
                              "err_xdot": table.err_xdot,
                              "err_v": table.err_v},
                             title="convergence to the sharp limit")
        outputs["svg"] = cfg.output["svg"]
    summary = (f"orders: x={table.orders['x']:.3g} "
               f"xdot={table.orders['xdot']:.3g} v={table.orders['v']:.3g}")
    print(summary)
    _artifact("table", cfg, outputs, summary)
    return 0


def cmd_verify_net(cfg):
    net = build_net(cfg)
    if not cfg.eps_schedule:
        raise ConfigError("verify-net needs an eps_schedule")
    report = verify_strict_delta_net(net, cfg.eps_schedule,
                                     tol=cfg.tol("net_tol", 1e-8))
    text = artifacts.net_report_text(report)
    print(text, end="")
    outputs = {}
    if "text" in cfg.output:
        artifacts.write_text(cfg.output["text"], text)
        outputs["text"] = cfg.output["text"]
    if "csv" in cfg.output:
        artifacts.write_net_report_csv(cfg.output["csv"], report)
        outputs["csv"] = cfg.output["csv"]
    _artifact("report", cfg, outputs, f"passed={report.passed}")
    return 0


def cmd_classify_growth(cfg):
    model = build_model(cfg)
    profile = build_profile(cfg)
    if cfg.growth is None:
        raise ConfigError("classify-growth needs a growth section")
    center = np.asarray(cfg.growth.get("center", [0.0] * model.dim), float)
    directions = cfg.growth.get("directions")
    if directions is None:
        raise ConfigError("growth.directions is required")
    radii = cfg.growth.get("radii")
    if radii is None:
        raise ConfigError("growth.radii is required")
    report = classify_growth(profile, model, center,
                             [np.asarray(d, float) for d in directions],
                             radii, margin=float(cfg.growth.get("margin", 0.1)))
    text = artifacts.growth_text(report)
    print(text, end="")
    outputs = {}
    if "text" in cfg.output:
        artifacts.write_text(cfg.output["text"], text)
        outputs["text"] = cfg.output["text"]
    _artifact("report", cfg, outputs, report.classification)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        _check_outputs(args.command, cfg)
        _workers(cfg, args.workers)  # validates the worker count
        if args.command == "integrate":
            return cmd_integrate(cfg)
        if args.command == "limit":
            return cmd_limit(cfg)
        if args.command == "certify":
            return cmd_certify(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "verify-net":
            return cmd_verify_net(cfg)
        return cmd_classify_growth(cfg)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ChartDomainError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
