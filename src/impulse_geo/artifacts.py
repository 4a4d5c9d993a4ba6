"""Artifact emission: CSV, aligned text and static SVG plots.

Every run writes a ``.meta.json`` sidecar (:func:`write_meta`) naming its
kind and outputs with their provenance (config hash, tool version, seed).
Every CSV layout is decided here.  CSV output is deterministic: floats are
written with ``repr``, lines end with LF, and the same config and seed
reproduce the file byte for byte.
"""

import hashlib
import json
import math

import numpy as np

from .dynamics import lagrangian_energy

__all__ = [
    "write_meta", "write_csv", "write_path_csv", "write_limit_csv",
    "write_table_csv", "write_net_report_csv", "write_certificate_csv",
    "certificate_text", "net_report_text",
    "growth_text", "limit_text", "write_text", "svg_loglog", "svg_path",
]

TOOL_VERSION = "0.1.0"


def write_meta(path, kind, outputs, config_text, seed):
    """Write the sidecar of a run of ``kind`` ("path", "certificate",
    "table" or "report") that wrote ``outputs`` (format -> path) from the
    config ``config_text`` and ``seed``."""
    digest = hashlib.sha256(config_text.encode("utf-8")).hexdigest()
    provenance = {"config_sha256": digest, "tool_version": TOOL_VERSION,
                  "seed": int(seed)}
    payload = {"kind": kind, "outputs": outputs, "provenance": provenance}
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows):
    lines = [header] + [[_fmt(v) for v in row] for row in rows]
    write_text(path, "".join(",".join(line) + "\n" for line in lines))


def _state_header(n):
    return (["u"] + [f"x{i+1}" for i in range(n)]
            + [f"xdot{i+1}" for i in range(n)] + ["v"])


def write_path_csv(path, geo_path, us, model, profile=None, net=None,
                   eps=None):
    """Path CSV with the fixed column schema
    ``u, x1..xn, xdot1..xdotn, v, vdot, energy``."""
    st = geo_path.state_at(us)
    energy = lagrangian_energy(st, model, profile, net, eps)
    write_csv(path, _state_header(geo_path.n) + ["vdot", "energy"],
              np.column_stack([st.u, st.x, st.xdot, st.v, st.vdot, energy]))


def write_limit_csv(path, lg, us):
    """Sharp-limit CSV: the path CSV's columns up to ``v``."""
    write_csv(path, _state_header(lg.n),
              np.column_stack([us, lg.sample(us)[:, :2 * lg.n + 1]]))


def write_table_csv(path, table):
    write_csv(path, ["eps", "err_x", "err_xdot", "err_v", "order"],
              np.column_stack([table.eps, table.err_x, table.err_xdot,
                               table.err_v, table.order_so_far]))


def write_net_report_csv(path, report):
    rows = [(c.eps, c.support_declared, c.support_measured, c.integral,
             c.l1, int(c.support_ok), int(c.indeterminate))
            for c in report.checks]
    write_csv(path, ["eps", "support_declared", "support_measured",
                      "integral", "l1", "support_ok", "indeterminate"], rows)


def _aligned(pairs):
    width = max(len(k) for k, _ in pairs) + 2
    return "\n".join(f"{k:<{width}}{v}" for k, v in pairs) + "\n"


def _vec(x):
    return "[" + ", ".join(repr(float(v)) for v in np.atleast_1d(x)) + "]"


# the certificate report in the order of its text, label -> attribute; the
# CSV leaves out the anchor and the sampling
_CERTIFICATE = {
    "chart": "chart", "anchor_x": "x0", "anchor_xdot": "xdot0", "b": "b",
    "c": "c", "K": "k", "norm_F1": "norm_F1", "norm_F2": "norm_F2",
    "lip_F1": "lip_F1", "lip_F2": "lip_F2", "i2_radius": "i2_radius",
    "alpha": "alpha", "eps0": "eps0", "grid": "grid", "safety": "safety",
}
_TEXT_ONLY = ("anchor_x", "anchor_xdot", "grid", "safety")


def _certificate_items(cert, leave_out=()):
    return [(label, getattr(cert, attr))
            for label, attr in _CERTIFICATE.items() if label not in leave_out]


def certificate_text(cert):
    return _aligned([(label, _vec(v) if np.ndim(v) else _fmt(v))
                     for label, v in _certificate_items(cert)])


def write_certificate_csv(path, cert):
    labels, values = zip(*_certificate_items(cert, _TEXT_ONLY))
    write_csv(path, labels, [values])


def net_report_text(report):
    pairs = [
        ("passed", str(report.passed)),
        ("supports_ok", str(report.supports_ok)),
        ("integral_ok", str(report.integral_ok)),
        ("l1_ok", str(report.l1_ok)),
        ("indeterminate", str(report.indeterminate)),
        ("K_declared", _fmt(report.k_declared)),
        ("K_measured", _fmt(report.k_measured)),
        ("tol", _fmt(report.tol)),
    ]
    lines = [_aligned(pairs)]
    lines.append("eps  support  integral  l1\n")
    for c in report.checks:
        lines.append(f"{c.eps!r}  {c.support_measured!r}  "
                     f"{c.integral!r}  {c.l1!r}\n")
    return "".join(lines)


def growth_text(report):
    pairs = [
        ("classification", report.classification),
        ("exponent", _fmt(report.exponent)),
        ("stderr", _fmt(report.stderr)),
        ("R1", _fmt(report.r1)),
        ("R2", _fmt(report.r2)),
        ("margin", _fmt(report.margin)),
        ("samples", str(len(report.samples))),
        ("dropped_directions", str(list(report.dropped_directions))),
    ]
    return _aligned(pairs)


def limit_text(lg):
    pairs = [
        ("x_break", _vec(lg.x_break)),
        ("xdot_minus", _vec(lg.xdot_minus)),
        ("xdot_plus", _vec(lg.xdot_plus)),
        ("grad_f_at_break", _vec(lg.grad_at_break)),
        ("jump_coeff", _fmt(lg.jump_coeff)),
        ("kink_coeff", _fmt(lg.kink_coeff)),
        ("v_limit(1)", _fmt(lg.v_at(1.0))),
    ]
    return _aligned(pairs)


def write_text(path, text):
    """Write ``text`` as UTF-8 with LF line ends; every writer ends here."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# minimal hand-rolled SVG: deterministic output, no plotting dependency

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _svg_header(title):
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n'
        f'<rect width="{_W}" height="{_H}" fill="white"/>\n'
        f'<text x="{_W/2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>\n')


def _axis_map(lo, hi, pix_lo, pix_hi):
    if hi - lo < 1e-300:
        hi = lo + 1.0

    def mapper(v):
        return pix_lo + (v - lo) / (hi - lo) * (pix_hi - pix_lo)

    return mapper


def _write_svg(path, title, x_label, series, x_map, y_map, grid, markers):
    """Write one plot: a polyline and a legend entry per ``(label, xs, ys)``
    of ``series``, over the ``grid`` elements, inside the frame; with
    ``markers`` each point also gets a dot."""
    parts = [_svg_header(title), *grid]
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{x_map(x):.2f},{y_map(y):.2f}"
                          for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>\n')
        if markers:
            for x, y in zip(xs, ys):
                parts.append(f'<circle cx="{x_map(x):.2f}" '
                             f'cy="{y_map(y):.2f}" r="3" fill="{color}"/>\n')
        parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 16 * (i + 1)}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="12" fill="{color}">{label}</text>\n')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>\n')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{x_label}</text>\n')
    parts.append("</svg>\n")
    write_text(path, "".join(parts))


def svg_loglog(path, eps, series, title="convergence"):
    """Log-log error plot: one polyline per labelled series."""
    eps = np.asarray(eps, dtype=float)
    pts = []
    all_x, all_y = [], []
    for label, values in series.items():
        values = np.asarray(values, dtype=float)
        keep = (values > 0) & np.isfinite(values) & (eps > 0)
        if not np.any(keep):
            continue
        lx = np.log10(eps[keep])
        ly = np.log10(values[keep])
        pts.append((label, lx, ly))
        all_x.extend(lx)
        all_y.extend(ly)
    x_map = y_map = None
    grid = []
    if pts:
        x_map = _axis_map(min(all_x), max(all_x), _ML, _W - _MR)
        y_map = _axis_map(min(all_y), max(all_y), _H - _MB, _MT)
        # decade grid lines
        for d in range(math.floor(min(all_x)), math.ceil(max(all_x)) + 1):
            px = x_map(d)
            grid.append(f'<line x1="{px:.2f}" y1="{_MT}" x2="{px:.2f}" '
                        f'y2="{_H - _MB}" stroke="#dddddd"/>\n')
            grid.append(f'<text x="{px:.2f}" y="{_H - _MB + 18}" '
                        f'text-anchor="middle" font-family="sans-serif" '
                        f'font-size="11">1e{d}</text>\n')
        for d in range(math.floor(min(all_y)), math.ceil(max(all_y)) + 1):
            py = y_map(d)
            grid.append(f'<line x1="{_ML}" y1="{py:.2f}" x2="{_W - _MR}" '
                        f'y2="{py:.2f}" stroke="#dddddd"/>\n')
            grid.append(f'<text x="{_ML - 6}" y="{py + 4:.2f}" '
                        f'text-anchor="end" font-family="sans-serif" '
                        f'font-size="11">1e{d}</text>\n')
    _write_svg(path, title, "eps", pts, x_map, y_map, grid, markers=True)


def svg_path(path_file, us, components, labels, title="trajectory"):
    """Linear plot of labelled path components against the parameter."""
    us = np.asarray(us, dtype=float)
    lo = min(float(np.min(c)) for c in components)
    hi = max(float(np.max(c)) for c in components)
    x_map = _axis_map(float(us.min()), float(us.max()), _ML, _W - _MR)
    y_map = _axis_map(lo, hi, _H - _MB, _MT)
    series = [(label, us, comp) for comp, label in zip(components, labels)]
    _write_svg(path_file, title, "u", series, x_map, y_map, [],
               markers=False)
