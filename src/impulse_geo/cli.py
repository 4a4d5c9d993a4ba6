"""Command line interface.

Subcommands operate on a JSON scenario config (see the README for the
schema); selected flags override config values and pass the same checks.
Exit codes: 0 on success, 2 when the config, a flag or an argument value
fails validation or a file cannot be read or written, 3 on numerical
failures.

The handlers pass on only the config keys that are set, so every default
is the library's.  ``sweep`` integrates all widths of its schedule as one
ensemble in this process; the ``--workers`` flag and the ``workers`` key are
accepted and checked as integers, but do nothing.  Reruns of the same
config are byte-identical.
"""

import argparse
import errno
import os
import sys

import numpy as np

from . import artifacts, dynamics, existence, limits
from .config import (build_data, build_model, build_net, build_profile,
                     load_config, parse_config, serialize_config)
from .errors import ChartDomainError, ConfigError, NumericalError
from .profiles import classify_growth, verify_strict_delta_net

__all__ = ["main", "build_parser"]


# flag -> (type, config key, help); ``section.key`` names a key of a section
_FLAGS = {
    "--eps": (float, "eps", "override the regularization width"),
    "--u-end": (float, "u_end", "override the final parameter value"),
    "--samples": (int, "samples", "override the output sample count"),
    "--seed": (int, "seed", "override the recorded seed"),
    "--workers": (int, "workers",
                  "accepted and checked as an integer; does nothing"),
    "--csv": (str, "output.csv", "override CSV output path"),
    "--svg": (str, "output.svg", "override SVG output path"),
    "--text": (str, "output.text", "override text output path"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="impulse-geo",
        description="Geodesics of impulsive wave geometries: integration, "
                    "existence certificates, and sharp-limit studies.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON scenario config")
        for flag, (kind, key, flag_help) in _FLAGS.items():
            p.add_argument(flag, type=kind, dest=key, help=flag_help)
    return parser


def _apply_overrides(cfg, args):
    for _, key, _ in _FLAGS.values():
        value = getattr(args, key)
        if value is None:
            continue
        section, _, name = key.rpartition(".")
        if section:
            getattr(cfg, section)[name] = value
        else:
            setattr(cfg, name, value)
    if args.eps is not None:
        cfg.eps_schedule = None  # a single width replaces the schedule
    return cfg


def _given(section, *keys, **renamed):
    """Keyword arguments from the keys of a config section that the config
    sets (``param="key"`` passes ``key`` as ``param``); a key it does not set
    keeps the library default."""
    names = {**{key: key for key in keys}, **renamed}
    return {param: section[key] for param, key in names.items()
            if key in section}


def _check_outputs(command, allowed, cfg):
    bad = sorted(set(cfg.output) - set(allowed))
    if bad:
        raise ConfigError(
            f"output format '{bad[0]}' is not supported by {command} "
            f"(supported: {', '.join(sorted(allowed))})")


def _check_writable(path):
    """Raise :class:`OSError` unless a file can be written at ``path``."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _write_outputs(cfg, kind, writers):
    """Write the requested outputs in the order of ``writers`` (format ->
    function of the path), then the sidecar beside the first of them.
    Every path is checked first, so a run writes all its files or none."""
    outputs = {fmt: cfg.output[fmt] for fmt in writers if fmt in cfg.output}
    if not outputs:
        return
    meta = next(iter(outputs.values())) + ".meta.json"
    for path in [*outputs.values(), meta]:
        _check_writable(path)
    for fmt, path in outputs.items():
        writers[fmt](path)
    artifacts.write_meta(meta, kind, outputs, serialize_config(cfg),
                         cfg.seed)


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
    path = dynamics.integrate_impulsive_geodesic(
        model, profile, net, eps, data, cfg.u_end,
        **_given(cfg.tolerances, "rtol", "atol"))
    us = np.linspace(-1.0, cfg.u_end, cfg.samples)

    def svg(out):
        xs = path.x_at(us)
        comps = [xs[:, i] for i in range(model.dim)] + [path.v_at(us)]
        labels = [f"x{i+1}" for i in range(model.dim)] + ["v"]
        artifacts.svg_path(out, us, comps, labels,
                           title="regularized geodesic")

    end = path.state_at(cfg.u_end)
    print(f"integrated to u={cfg.u_end:g}; "
          f"x={np.array2string(end.x, precision=6)} v={end.v:.6g}; "
          f"energy drift {path.diagnostics.energy_drift:.3e}")
    return "path", {
        "csv": lambda out: artifacts.write_path_csv(out, path, us, model,
                                                    profile, net, eps),
        "svg": svg}


def cmd_limit(cfg):
    model = build_model(cfg)
    profile = build_profile(cfg)
    data = build_data(cfg, model.dim)
    lg = limits.limit_geodesic(model, profile, data,
                               u_end=max(cfg.u_end, 1.0),
                               **_given(cfg.tolerances, "rtol", "atol"))
    text = artifacts.limit_text(lg)
    print(text, end="")

    us = np.linspace(-1.0, lg.u_end, cfg.samples)
    return "report", {
        "text": lambda out: artifacts.write_text(out, text),
        "csv": lambda out: artifacts.write_limit_csv(out, lg, us)}


def cmd_certify(cfg):
    model = build_model(cfg)
    profile = build_profile(cfg)
    net = build_net(cfg)
    data = build_data(cfg, model.dim)
    # anchor the certificate at the shock-crossing state of the background
    # trajectory (the strip entry point in the sharp-width limit)
    base = dynamics.background_path(model, data.x0, data.xdot0, -1.0, 0.0,
                                    **_given(cfg.tolerances, "rtol", "atol"))
    cert = existence.certify(model, profile, base.x_at(0.0),
                             base.xdot_at(0.0), k=net.l1_bound,
                             **_given(cfg.existence, "b", "c", "grid"))
    text = artifacts.certificate_text(cert)
    print(text, end="")
    return "certificate", {
        "text": lambda out: artifacts.write_text(out, text),
        "csv": lambda out: artifacts.write_certificate_csv(out, cert)}


def cmd_sweep(cfg):
    if not cfg.eps_schedule:
        raise ConfigError("sweep needs an eps_schedule")
    if not cfg.u_probes:
        raise ConfigError("sweep needs u_probes")
    model = build_model(cfg)  # validates the manifold section early
    profile = build_profile(cfg)
    net = build_net(cfg)
    data = build_data(cfg, model.dim)
    table = limits.convergence_study(
        model, profile, net, data, cfg.eps_schedule, cfg.u_probes,
        **_given(cfg.tolerances, "rtol", "atol"))
    print(f"orders: x={table.orders['x']:.3g} "
          f"xdot={table.orders['xdot']:.3g} v={table.orders['v']:.3g}")
    errors = {"err_x": table.err_x, "err_xdot": table.err_xdot,
              "err_v": table.err_v}
    return "table", {
        "csv": lambda out: artifacts.write_table_csv(out, table),
        "svg": lambda out: artifacts.svg_loglog(
            out, table.eps, errors, title="convergence to the sharp limit")}


def cmd_verify_net(cfg):
    net = build_net(cfg)
    if not cfg.eps_schedule:
        raise ConfigError("verify-net needs an eps_schedule")
    report = verify_strict_delta_net(
        net, cfg.eps_schedule, **_given(cfg.tolerances, tol="net_tol"))
    text = artifacts.net_report_text(report)
    print(text, end="")
    return "report", {
        "text": lambda out: artifacts.write_text(out, text),
        "csv": lambda out: artifacts.write_net_report_csv(out, report)}


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
                             radii, **_given(cfg.growth, "margin"))
    text = artifacts.growth_text(report)
    print(text, end="")
    return "report", {
        "text": lambda out: artifacts.write_text(out, text)}


# subcommand -> (handler, output formats, help); a handler returns the
# artifact kind and a writer per output format, in write order
_COMMANDS = {
    "integrate": (cmd_integrate, ("csv", "svg"),
                  "integrate one regularized geodesic and export it"),
    "limit": (cmd_limit, ("text", "csv"),
              "construct the sharp-limit geodesic and its coefficients"),
    "certify": (cmd_certify, ("text", "csv"),
                "build the fixed-point crossing certificate"),
    "sweep": (cmd_sweep, ("csv", "svg"),
              "convergence study over a width schedule"),
    "verify-net": (cmd_verify_net, ("text", "csv"),
                   "check the strict-net properties of the impulse family"),
    "classify-growth": (cmd_classify_growth, ("text",),
                        "estimate the radial growth exponent of a profile"),
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler, formats, _ = _COMMANDS[args.command]
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        # the flags pass the same checks as the config keys they override
        cfg = parse_config(serialize_config(cfg))
        _check_outputs(args.command, formats, cfg)
        _write_outputs(cfg, *handler(cfg))
        return 0
    except OSError as exc:
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
