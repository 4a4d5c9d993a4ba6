import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulse_geo import (artifacts, config, dynamics, geometry, limits,
                         profiles)
from impulse_geo.cli import main
from impulse_geo.errors import ConfigError


BASE = {
    "schema_version": 1,
    "manifold": {"name": "euclidean", "dim": 2},
    "profile": {"name": "linear", "coeffs": [1.0, 0.0]},
    "net": "mollifier",
    "data": {"x0": [0.0, 0.0], "xdot0": [1.0, 0.0]},
    "eps": 0.01,
    "u_end": 1.0,
    "samples": 41,
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_roundtrip_identity():
    cfg = config.parse_config(json.dumps(BASE))
    text = config.serialize_config(cfg)
    again = config.parse_config(text)
    assert again == cfg
    assert config.serialize_config(again) == text


def test_unknown_keys_rejected():
    bad = dict(BASE)
    bad["frobnicate"] = 1
    with pytest.raises(ConfigError, match="unknown key 'frobnicate'"):
        config.parse_config(json.dumps(bad))
    bad = dict(BASE)
    bad["profile"] = {"name": "linear", "coeffs": [1, 0], "exp": 2}
    with pytest.raises(ConfigError, match="unknown key 'exp'"):
        config.parse_config(json.dumps(bad))


def test_unknown_names_list_known_ones():
    bad = dict(BASE)
    bad["manifold"] = {"name": "torus"}
    with pytest.raises(ConfigError, match="hyperbolic_half_plane"):
        config.parse_config(json.dumps(bad))
    bad = dict(BASE)
    bad["net"] = "boxcar"
    with pytest.raises(ConfigError, match="mollifier"):
        config.parse_config(json.dumps(bad))


def test_value_validation():
    bad = dict(BASE)
    bad["eps"] = 0.7
    with pytest.raises(ConfigError, match="0.5"):
        config.parse_config(json.dumps(bad))
    bad = dict(BASE)
    bad["schema_version"] = 2
    with pytest.raises(ConfigError, match="schema_version"):
        config.parse_config(json.dumps(bad))
    bad = dict(BASE)
    bad["eps_schedule"] = [0.1, 0.2]
    del bad["eps"]
    with pytest.raises(ConfigError, match="decreasing"):
        config.parse_config(json.dumps(bad))


def test_cli_integrate_schema_and_determinism(tmp_path):
    payload = dict(BASE)
    payload["output"] = {"csv": str(tmp_path / "path.csv")}
    cfg = write_cfg(tmp_path, payload)
    assert main(["integrate", "--config", cfg]) == 0
    first = (tmp_path / "path.csv").read_bytes()
    header = first.decode().splitlines()[0]
    assert header == "u,x1,x2,xdot1,xdot2,v,vdot,energy"
    assert len(first.decode().splitlines()) == 1 + payload["samples"]
    assert main(["integrate", "--config", cfg]) == 0
    assert (tmp_path / "path.csv").read_bytes() == first
    meta = json.loads((tmp_path / "path.csv.meta.json").read_text())
    assert meta["kind"] == "path"
    assert "config_sha256" in meta["provenance"]


def test_cli_certify_flat_linear(tmp_path):
    payload = dict(BASE)
    del payload["eps"]
    payload["output"] = {"text": str(tmp_path / "cert.txt")}
    cfg = write_cfg(tmp_path, payload)
    assert main(["certify", "--config", cfg]) == 0
    text = (tmp_path / "cert.txt").read_text()
    assert "alpha" in text and "0.6666666666666666" in text
    assert "eps0" in text and "0.3333333333333333" in text


def test_cli_sweep_csv_and_svg(tmp_path):
    payload = dict(BASE)
    del payload["eps"]
    payload["eps_schedule"] = [0.125, 0.0625, 0.03125]
    payload["u_probes"] = [-0.5, 0.5, 1.0]
    payload["output"] = {"csv": str(tmp_path / "sweep.csv"),
                         "svg": str(tmp_path / "sweep.svg")}
    cfg = write_cfg(tmp_path, payload)
    assert main(["sweep", "--config", cfg]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "eps,err_x,err_xdot,err_v,order"
    assert len(lines) == 1 + 3
    svg = (tmp_path / "sweep.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    # a series with no positive finite error is left out of the plot (the
    # skip in artifacts.svg_loglog); a path of constant components has a
    # flat range, which artifacts._axis_map widens to one unit
    skipped = tmp_path / "skipped.svg"
    artifacts.svg_loglog(str(skipped), [0.1, 0.05],
                         {"err_x": [1e-3, 5e-4], "err_v": [0.0, np.nan]})
    svg = skipped.read_text()
    assert svg.count("<polyline") == 1
    assert "err_x" in svg and "err_v" not in svg
    flat = tmp_path / "flat.svg"
    artifacts.svg_path(str(flat), [0.0, 1.0], [np.ones(2), np.ones(2)],
                       ["x1", "x2"])
    svg = flat.read_text()
    assert svg.count("<polyline") == 2 and "nan" not in svg


def test_cli_certify_flat_linear_report_values(tmp_path):
    # the CSV holds exactly these bytes; the text has the same value under
    # each shared key, and every key but anchor_x (whose last bit comes
    # from the integrator) is pinned too
    payload = {**NO_EPS, "output": {"text": str(tmp_path / "cert.txt"),
                                    "csv": str(tmp_path / "cert.csv")}}
    assert main(["certify", "--config", write_cfg(tmp_path, payload)]) == 0
    header, row = (tmp_path / "cert.csv").read_text().splitlines()
    assert header == ("chart,b,c,K,norm_F1,norm_F2,lip_F1,lip_F2,i2_radius,"
                      "alpha,eps0")
    assert row == ("euclidean(2),1.0,1.0,1.0,0.0,0.5,0.0,0.0,1.5,"
                   "0.6666666666666666,0.3333333333333333")
    text = dict(line.split(None, 1)
                for line in (tmp_path / "cert.txt").read_text().splitlines())
    anchor = text.pop("anchor_x")
    assert np.allclose(json.loads(anchor), [1.0, 0.0], rtol=0.0, atol=1e-12)
    assert text == {**dict(zip(header.split(","), row.split(","))),
                    "anchor_xdot": "[1.0, 0.0]", "grid": "9",
                    "safety": "1.1"}


def test_cli_sweep_rows_are_the_table_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    payload = {**HYP_BUMP, "eps_schedule": [0.2, 0.1, 0.05],
               "u_probes": [-0.5, 0.5, 1.0], "output": {"csv": str(out)}}
    assert main(["sweep", "--config", write_cfg(tmp_path, payload)]) == 0
    cfg = config.parse_config(json.dumps(payload))
    model = config.build_model(cfg)
    table = limits.convergence_study(
        model, config.build_profile(cfg), config.build_net(cfg),
        config.build_data(cfg, model.dim), cfg.eps_schedule, cfg.u_probes)
    columns = (table.eps, table.err_x, table.err_xdot, table.err_v,
               table.order_so_far)
    assert _csv_lines(out) == [_repr_row(values) for values in zip(*columns)]


def test_cli_sweep_workers_agree(tmp_path):
    # the worker count is validated but does not change the sweep: flat and
    # linear (Gamma = 0), then curved with a bump profile and three widths
    hyperbolic = {
        "manifold": {"name": "hyperbolic_half_plane"},
        "profile": {"name": "gaussian_bump", "amplitude": 1.0,
                    "center": [0.8, 1.2], "width": 0.8},
        "data": {"x0": [0.0, 1.0], "xdot0": [0.6, 0.4]},
        "eps_schedule": [0.125, 0.0625, 0.03125],
    }
    for tag, changes in (("flat", {}), ("hyperbolic", hyperbolic)):
        payload = {**BASE, "eps_schedule": [0.125, 0.0625], **changes}
        del payload["eps"]
        payload["u_probes"] = [-0.5, 0.5, 1.0]
        payload["output"] = {"csv": str(tmp_path / f"{tag}-a.csv")}
        cfg = write_cfg(tmp_path, payload, f"{tag}.json")
        assert main(["sweep", "--config", cfg]) == 0
        serial = (tmp_path / f"{tag}-a.csv").read_bytes()
        assert main(["sweep", "--config", cfg, "--workers", "2",
                     "--csv", str(tmp_path / f"{tag}-b.csv")]) == 0
        assert (tmp_path / f"{tag}-b.csv").read_bytes() == serial


def test_cli_verify_net(tmp_path, capsys):
    payload = {"schema_version": 1,
               "manifold": {"name": "euclidean", "dim": 2},
               "net": "mollifier",
               "eps_schedule": [2.0 ** -k for k in range(1, 9)]}
    cfg = write_cfg(tmp_path, payload)
    assert main(["verify-net", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "passed" in out and "True" in out


def test_cli_limit_text(tmp_path, capsys):
    payload = dict(BASE)
    del payload["eps"]
    cfg = write_cfg(tmp_path, payload)
    assert main(["limit", "--config", cfg]) == 0
    out = capsys.readouterr().out
    values = {line.split()[0]: line.split()[1] for line in out.splitlines()
              if len(line.split()) == 2 and line.split()[1][0] in "-0123456789"}
    assert float(values["jump_coeff"]) == pytest.approx(-0.5, abs=1e-12)
    assert float(values["kink_coeff"]) == pytest.approx(-0.625, abs=1e-12)
    assert float(values["v_limit(1)"]) == pytest.approx(-1.125, abs=1e-12)


NET_REPORT = {"schema_version": 1, "manifold": {"name": "euclidean", "dim": 2},
              "net": "mollifier", "eps_schedule": [0.5, 0.25, 0.125]}
GROWTH = {"schema_version": 1, "manifold": {"name": "euclidean", "dim": 2},
          "profile": {"name": "radial_power", "amplitude": 1.0,
                      "exponent": 3.0},
          "growth": {"center": [0.0, 0.0], "directions": [[1, 0], [0, 1]],
                     "radii": [1, 2, 4, 8]}}
NO_EPS = {key: value for key, value in BASE.items() if key != "eps"}


HYP_BUMP = {**NO_EPS, "manifold": {"name": "hyperbolic_half_plane"},
            "profile": {"name": "gaussian_bump", "amplitude": 1.0,
                        "center": [0.8, 1.2], "width": 0.8},
            "net": "signed", "data": {"x0": [0.0, 1.0], "xdot0": [0.6, 0.4]},
            "samples": 201}


def _csv_lines(path):
    return path.read_text(encoding="utf-8").splitlines()[1:]


def _repr_row(values):
    return ",".join(repr(float(v)) for v in values)


def test_path_csvs_hold_the_point_samples(tmp_path):
    # every CSV row is the state, energy or limit value of its own u,
    # written with repr, so the comparison is bit for bit
    cfg = config.parse_config(json.dumps(HYP_BUMP))
    model, prof = config.build_model(cfg), config.build_profile(cfg)
    net, data = config.build_net(cfg), config.build_data(cfg, model.dim)
    eps = 0.05
    path = dynamics.integrate_impulsive_geodesic(model, prof, net, eps, data,
                                                 cfg.u_end)
    us = np.linspace(-1.0, cfg.u_end, cfg.samples)
    out = tmp_path / "path.csv"
    artifacts.write_path_csv(str(out), path, us, model, prof, net, eps)
    lines = _csv_lines(out)
    assert len(lines) == len(us)
    for u, line in zip(us, lines):
        st = path.state_at(float(u))
        energy = dynamics.lagrangian_energy(st, model, prof, net, eps)
        assert line == _repr_row([st.u, *st.x, *st.xdot, st.v, st.vdot,
                                  energy])
    # the strip is sampled, and the impulse term is in the energy there
    assert np.sum(np.abs(us) < eps) >= 9

    out = tmp_path / "limit.csv"
    assert main(["limit", "--config",
                 write_cfg(tmp_path, {**HYP_BUMP,
                                      "output": {"csv": str(out)}})]) == 0
    lg = limits.limit_geodesic(model, prof, data, u_end=max(cfg.u_end, 1.0))
    us = np.linspace(-1.0, lg.u_end, cfg.samples)
    lines = _csv_lines(out)
    assert len(lines) == len(us)
    for u, line in zip(us, lines):
        u = float(u)
        assert line == _repr_row([u, *lg.x_at(u), *lg.xdot_at(u),
                                  lg.v_at(u)])


def test_cli_classify_growth(tmp_path, capsys):
    payload = {"schema_version": 1,
               "manifold": {"name": "euclidean", "dim": 2},
               "profile": {"name": "radial_power", "amplitude": 1.0,
                           "exponent": 3.0},
               "growth": {"center": [0.0, 0.0],
                          "directions": [[1, 0], [0, 1], [1, 1]],
                          "radii": [1, 2, 4, 8, 16, 32]}}
    cfg = write_cfg(tmp_path, payload)
    assert main(["classify-growth", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "superquadratic" in out


def test_cli_validation_exit_codes(tmp_path):
    bad = dict(BASE)
    bad["net"] = "boxcar"
    cfg = write_cfg(tmp_path, bad)
    assert main(["integrate", "--config", cfg]) == 2
    assert main(["integrate", "--config", str(tmp_path / "missing.json")]) == 2
    payload = dict(BASE)
    del payload["eps"]  # integrate needs one eps
    cfg2 = write_cfg(tmp_path, payload, "noeps.json")
    assert main(["integrate", "--config", cfg2]) == 2


@pytest.mark.parametrize("key, value", [
    ("eps", "wide"),
    ("u_end", "far"),
    ("samples", "many"),
    ("seed", "zero"),
    ("workers", "two"),
    ("u_probes", [0.5, "late"]),
    ("eps_schedule", [0.1, "small"]),
    ("data", {"x0": [0.0, "origin"], "xdot0": [1.0, 0.0]}),
    ("tolerances", {"rtol": "tight"}),
    ("manifold", "euclidean"),
    ("profile", {"name": "linear", "coeffs": [1.0, 0.0, 0.0]}),
    ("growth", {"center": [0.0, 0.0], "directions": [[1.0, 0.0], [0.0, 0.0]],
                "radii": [1.0, 2.0]}),
    # a flag, checked after the overrides: u_end must exceed eps = 0.01
    ("--u-end", "0.01"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_cli_malformed_values_exit_2(tmp_path, capsys, key, value):
    payload = dict(BASE)
    flags = []
    if key.startswith("--"):
        flags = [key, value]
    else:
        payload[key] = value
        if key == "eps_schedule":
            del payload["eps"]
        with pytest.raises(ConfigError):
            config.parse_config(json.dumps(payload))
    cfg = write_cfg(tmp_path, payload)
    assert main(["integrate", "--config", cfg] + flags) == 2
    assert "validation error" in capsys.readouterr().err
    if key == "growth":
        assert main(["classify-growth", "--config", cfg]) == 2
        assert "validation error" in capsys.readouterr().err


def test_cli_rejects_unsupported_output_pairing(tmp_path):
    payload = dict(BASE)
    del payload["eps"]
    payload["output"] = {"svg": str(tmp_path / "cert.svg")}
    cfg = write_cfg(tmp_path, payload)
    assert main(["certify", "--config", cfg]) == 2
    payload["output"] = {"csv": str(tmp_path / "g.csv")}
    payload["profile"] = {"name": "radial_power", "exponent": 2.0}
    payload["growth"] = {"center": [0.0, 0.0], "directions": [[1, 0]],
                         "radii": [1.0, 2.0, 4.0]}
    cfg = write_cfg(tmp_path, payload, "growth.json")
    assert main(["classify-growth", "--config", cfg]) == 2


def test_cli_numerical_failure_exit_code(tmp_path):
    payload = dict(BASE)
    payload["profile"] = {"name": "radial_power", "amplitude": 1e9,
                          "exponent": 4.0, "center": [0.0, 0.0]}
    payload["data"] = {"x0": [1.0, 0.0], "xdot0": [1.0, 0.0]}
    payload["eps"] = 0.4
    cfg = write_cfg(tmp_path, payload)
    assert main(["integrate", "--config", cfg]) == 3


def test_flag_overrides_config(tmp_path):
    payload = dict(BASE)
    payload["output"] = {"csv": str(tmp_path / "x.csv")}
    cfg = write_cfg(tmp_path, payload)
    assert main(["integrate", "--config", cfg, "--samples", "11",
                 "--csv", str(tmp_path / "y.csv")]) == 0
    assert not (tmp_path / "x.csv").exists()
    assert len((tmp_path / "y.csv").read_text().splitlines()) == 12


OUTPUT_CASES = [
    ("verify-net", NET_REPORT, "csv",
     "eps,support_declared,support_measured,integral,l1,support_ok,"
     "indeterminate"),
    ("verify-net", NET_REPORT, "text", "passed"),
    ("limit", NO_EPS, "text", "x_break"),
    ("limit", NO_EPS, "csv", "u,x1,x2,xdot1,xdot2,v"),
    ("certify", NO_EPS, "csv",
     "chart,b,c,K,norm_F1,norm_F2,lip_F1,lip_F2,i2_radius,alpha,eps0"),
    ("classify-growth", GROWTH, "text", "classification"),
    ("integrate", BASE, "svg", "<svg"),
]


@pytest.mark.parametrize("command, payload, kind, first_line", OUTPUT_CASES,
                         ids=[f"{case[0]}-{case[2]}" for case in OUTPUT_CASES])
def test_cli_outputs_headers_and_sidecars(tmp_path, command, payload, kind,
                                          first_line):
    # a CSV starts with its header, a text report with its first key and an
    # SVG with its root element; every rerun gives the same bytes
    out = tmp_path / f"out.{kind}"
    cfg = write_cfg(tmp_path, {**payload, "output": {kind: str(out)}})
    assert main([command, "--config", cfg]) == 0
    first = out.read_bytes()
    line = first.decode().splitlines()[0]
    assert line == first_line if kind == "csv" else line.startswith(first_line)
    meta = tmp_path / f"out.{kind}.meta.json"
    sidecar = meta.read_bytes()
    assert json.loads(sidecar)["outputs"] == {kind: str(out)}
    assert main([command, "--config", cfg]) == 0
    assert out.read_bytes() == first and meta.read_bytes() == sidecar


SWEEP = {**NO_EPS, "eps_schedule": [0.125, 0.0625], "u_probes": [-0.5, 0.5]}


def _growth(**changes):
    return {**GROWTH, "growth": {**GROWTH["growth"], **changes}}


def _existence(**values):
    return {**NO_EPS, "existence": values}


FLAT_BUMP = {"name": "gaussian_bump", "center": [1.0, 0.0], "width": 0}


# argument values the library rejects, given in the config or by a flag
REJECTED_CASES = {
    "growth-radii-decreasing": ("classify-growth", _growth(radii=[2, 1]), []),
    "growth-radii-single": ("classify-growth", _growth(radii=[1]), []),
    "growth-radii-negative": ("classify-growth", _growth(radii=[-1, 1]), []),
    "growth-no-directions": ("classify-growth", _growth(directions=[]), []),
    "certify-grid-0": ("certify", _existence(grid=0), []),
    "certify-grid-5": ("certify", _existence(grid=5), []),
    "certify-c-0": ("certify", _existence(c=0), []),
    "certify-b-negative": ("certify", _existence(b=-1), []),
    "certify-c-negative": ("certify", _existence(c=-1), []),
    # JSON's NaN and Infinity, which Python's json module reads
    "certify-b-nan": ("certify", _existence(b=float("nan")), []),
    "growth-radii-infinite": ("classify-growth",
                              _growth(radii=[1, float("inf")]), []),
    "integrate-u-end-infinite": ("integrate", BASE, ["--u-end", "inf"]),
    "integrate-samples-0": ("integrate", BASE, ["--samples", "0"]),
    "integrate-samples-negative": ("integrate", BASE, ["--samples", "-3"]),
    "limit-samples-0": ("limit", NO_EPS, ["--samples", "0"]),
    "limit-samples-negative": ("limit", NO_EPS, ["--samples", "-3"]),
    "sweep-probe-at-0": ("sweep", {**SWEEP, "u_probes": [0.0, 0.5]}, []),
    "sweep-probe-before-data": ("sweep", {**SWEEP, "u_probes": [-2.0, 0.5]},
                                []),
    # the widest strip is [-0.125, 0.125]
    "sweep-no-probe-clears-strip": ("sweep",
                                    {**SWEEP, "u_probes": [-0.1, 0.125]}, []),
    # a Gaussian bump needs a positive width
    "integrate-gaussian-width-0": ("integrate", {**BASE, "profile": FLAT_BUMP},
                                   []),
    "certify-gaussian-width-0": ("certify", {**NO_EPS, "profile": FLAT_BUMP},
                                 []),
    "limit-gaussian-width-0": ("limit", {**NO_EPS, "profile": FLAT_BUMP}, []),
    # without atol > 0 and rtol >= 0 the error scale can vanish
    "integrate-atol-0": ("integrate", {**BASE, "tolerances": {"atol": 0}}, []),
    "sweep-rtol-negative": ("sweep",
                            {**SWEEP, "tolerances": {"rtol": -1e-10}}, []),
    # a name that is not a string is an unknown name
    "integrate-manifold-name-list": ("integrate",
                                     {**BASE, "manifold": {"name": []}}, []),
    "certify-profile-name-object": ("certify",
                                    {**NO_EPS, "profile": {"name": {}}}, []),
    # a JSON integer beyond the float range is not a finite number
    "integrate-u-end-beyond-float": ("integrate",
                                     {**BASE, "u_end": 10 ** 400}, []),
    "certify-grid-beyond-float": ("certify", _existence(grid=10 ** 400), []),
    # verify_strict_delta_net needs 0 < tol < inf
    "verify-net-tol-negative": ("verify-net",
                                {**NET_REPORT,
                                 "tolerances": {"net_tol": -1.0}}, []),
}


@pytest.mark.parametrize("command, payload, flags", REJECTED_CASES.values(),
                         ids=REJECTED_CASES.keys())
def test_cli_rejected_argument_values_exit_2(tmp_path, capsys, command,
                                             payload, flags):
    # a value the library rejects is a validation error, not a traceback,
    # and no output is written
    kind = "text" if command in ("certify", "classify-growth") else "csv"
    out = tmp_path / f"out.{kind}"
    cfg = write_cfg(tmp_path, {**payload, "output": {kind: str(out)}})
    assert main([command, "--config", cfg] + flags) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


def _drop(payload, key):
    """``payload`` without ``key``; ``section.key`` drops a key of a section."""
    section, _, name = key.rpartition(".")
    if section:
        return {**payload, section: _drop(payload[section], name)}
    return {k: v for k, v in payload.items() if k != name}


# configs without a part the command needs, or with a malformed one, and
# the message naming it
NEEDS_CASES = {
    "sweep-no-schedule": ("sweep", _drop(SWEEP, "eps_schedule"), [],
                          "sweep needs an eps_schedule"),
    # a single width from the flag replaces the schedule
    "sweep-eps-flag": ("sweep", SWEEP, ["--eps", "0.1"],
                       "sweep needs an eps_schedule"),
    "sweep-no-probes": ("sweep", _drop(SWEEP, "u_probes"), [],
                        "sweep needs u_probes"),
    "verify-net-no-schedule": ("verify-net",
                               _drop(NET_REPORT, "eps_schedule"), [],
                               "verify-net needs an eps_schedule"),
    "growth-no-section": ("classify-growth", _drop(GROWTH, "growth"), [],
                          "classify-growth needs a growth section"),
    "growth-no-directions": ("classify-growth",
                             _drop(GROWTH, "growth.directions"), [],
                             "growth.directions is required"),
    "growth-no-radii": ("classify-growth", _drop(GROWTH, "growth.radii"), [],
                        "growth.radii is required"),
    "integrate-no-profile": ("integrate", _drop(BASE, "profile"), [],
                             "this command needs a profile section"),
    "integrate-no-net": ("integrate", _drop(BASE, "net"), [],
                         "this command needs a net name"),
    "integrate-no-data": ("integrate", _drop(BASE, "data"), [],
                          "this command needs a data section"),
    "integrate-bump-no-center": (
        "integrate", {**BASE, "profile": {"name": "gaussian_bump",
                                          "width": 0.8}}, [],
        "gaussian_bump profile needs a center"),
    "config-is-a-list": ("integrate", [BASE], [],
                         "config must be a JSON object"),
    "no-manifold": ("integrate", _drop(BASE, "manifold"), [],
                    "config must declare a manifold"),
    "manifold-dim-0": ("integrate",
                       {**BASE, "manifold": {"name": "euclidean", "dim": 0}},
                       [], "manifold dim must be a positive integer"),
    "quadratic-matrix-one-row": (
        "integrate", {**BASE, "profile": {"name": "quadratic_form",
                                          "matrix": [[1.0, 0.0]]}}, [],
        "profile.matrix must be a list of lists of 2 numbers"),
    "eps-and-schedule": ("integrate", {**BASE, "eps_schedule": [0.1]}, [],
                         "give either eps or eps_schedule, not both"),
    "sweep-schedule-empty": ("sweep", {**SWEEP, "eps_schedule": []}, [],
                             "eps_schedule must be a non-empty list"),
    "sweep-schedule-width-0.7": (
        "sweep", {**SWEEP, "eps_schedule": [0.7, 0.1]}, [],
        "every eps in the schedule must lie in (0, 0.5]"),
    "tolerances-not-an-object": ("integrate", {**BASE, "tolerances": 5}, [],
                                 "section 'tolerances' must be an object"),
    "output-path-not-a-string": ("integrate",
                                 {**BASE, "output": {"csv": 5}}, [],
                                 "output.csv must be a file path"),
    "data-3-numbers": (
        "integrate", {**BASE, "data": {"x0": [0.0, 0.0, 0.0],
                                       "xdot0": [1.0, 0.0, 0.0]}}, [],
        "data dimension 3 does not match the manifold (2)"),
}


@pytest.mark.parametrize("command, payload, flags, message",
                         NEEDS_CASES.values(), ids=NEEDS_CASES.keys())
def test_cli_missing_parts_exit_2(tmp_path, capsys, command, payload, flags,
                                  message):
    cfg = write_cfg(tmp_path, payload)
    assert main([command, "--config", cfg] + flags) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"


def test_eps_flag_replaces_the_schedule(tmp_path):
    out = tmp_path / "flag.csv"
    cfg = write_cfg(tmp_path, {**SWEEP, "output": {"csv": str(out)}})
    assert main(["integrate", "--config", cfg, "--eps", "0.05"]) == 0
    want = tmp_path / "config.csv"
    cfg = write_cfg(tmp_path, {**NO_EPS, "eps": 0.05,
                               "output": {"csv": str(want)}}, "eps.json")
    assert main(["integrate", "--config", cfg]) == 0
    assert out.read_bytes() == want.read_bytes()


def _raw_config(tmp_path, data):
    path = tmp_path / "raw.json"
    path.write_bytes(data)
    return ["integrate", "--config", str(path)]


# a config that cannot be read or decoded, or an output that cannot be
# written: argv for the run, and the start of its one error line
UNREADABLE_CASES = {
    # json.dumps cannot write an integer too long for int() to convert
    "integer-of-5001-digits": (
        lambda tmp: _raw_config(tmp, (json.dumps(BASE)[:-1] + ', "seed": 1'
                                      + "0" * 5000 + "}").encode()),
        "validation error: config is not valid JSON"),
    "config-not-utf8": (lambda tmp: _raw_config(tmp, b"\xff\xfe{"),
                        "validation error: config is not UTF-8 text"),
    "config-is-a-directory": (
        lambda tmp: ["integrate", "--config", str(tmp)], "error: "),
    "csv-is-a-directory": (
        lambda tmp: ["integrate", "--config", write_cfg(tmp, BASE),
                     "--csv", str(tmp)], "error: "),
    "csv-in-missing-directory": (
        lambda tmp: ["integrate", "--config", write_cfg(tmp, BASE),
                     "--csv", str(tmp / "missing" / "p.csv")],
        "error: [Errno 2] No such file or directory"),
}


@pytest.mark.parametrize("argv, start", UNREADABLE_CASES.values(),
                         ids=UNREADABLE_CASES.keys())
def test_cli_unreadable_files_exit_2(tmp_path, capsys, argv, start):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1


def test_cli_unwritable_output_writes_nothing(tmp_path, capsys):
    # the SVG path is a directory: the CSV before it and the sidecar are
    # not written either
    csv = tmp_path / "p.csv"
    cfg = write_cfg(tmp_path, {**BASE, "output": {"csv": str(csv),
                                                  "svg": str(tmp_path)}})
    assert main(["integrate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not csv.exists()
    assert not (tmp_path / "p.csv.meta.json").exists()


SMALL = st.floats(-10.0, 10.0, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(command=st.sampled_from(["certify", "classify-growth"]),
       b=SMALL, c=SMALL, grid=st.integers(-2, 15),
       radii=st.lists(SMALL, max_size=4), margin=SMALL,
       samples=st.integers(-10, 10))
def test_cli_fuzzed_values_never_raise(tmp_path_factory, command, b, c, grid,
                                       radii, margin, samples):
    # any value either runs, is a validation error or a numerical failure
    payload = {**NO_EPS, "profile": GROWTH["profile"],
               "existence": {"b": b, "c": c, "grid": grid},
               "growth": {**GROWTH["growth"], "radii": radii,
                          "margin": margin}}
    cfg = write_cfg(tmp_path_factory.mktemp("fuzz"), payload)
    assert main([command, "--config", cfg,
                 "--samples", str(samples)]) in (0, 2, 3)


# integer settings with a fractional value: rejected, never truncated
FRACTIONAL_CASES = {
    "samples": {**BASE, "samples": 41.7},
    "seed": {**BASE, "seed": 0.5},
    "workers": {**BASE, "workers": 1.5},
    "existence-grid": {**BASE, "existence": {"grid": 9.9}},
    "existence-max_iter": {**BASE, "existence": {"max_iter": 10.5}},
    "existence-picard_grid": {**BASE, "existence": {"picard_grid": 400.25}},
}


@pytest.mark.parametrize("payload", FRACTIONAL_CASES.values(),
                         ids=FRACTIONAL_CASES.keys())
def test_fractional_integer_keys_exit_2(tmp_path, capsys, payload):
    with pytest.raises(ConfigError, match="must be an integer"):
        config.parse_config(json.dumps(payload))
    out = tmp_path / "out.csv"
    cfg = write_cfg(tmp_path, {**payload, "output": {"csv": str(out)}})
    assert main(["integrate", "--config", cfg]) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_integer_keys_pass(tmp_path):
    # 9.0 is the integer 9; certify reports the grid it ran on
    payload = {**NO_EPS, "samples": 41.0, "seed": 3.0, "workers": 1.0,
               "existence": {"grid": 9.0, "max_iter": 20.0,
                             "picard_grid": 400.0}}
    cfg = config.parse_config(json.dumps(payload))
    assert (cfg.samples, cfg.seed, cfg.workers) == (41, 3, 1)
    assert all(type(v) is int for v in (cfg.samples, cfg.seed, cfg.workers))
    texts = []
    for grid in (9.0, 9):
        out = tmp_path / f"cert-{grid!r}.txt"
        path = write_cfg(tmp_path, {**payload,
                                    "existence": {**payload["existence"],
                                                  "grid": grid},
                                    "output": {"text": str(out)}})
        assert main(["certify", "--config", path]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


MATRIX = [[0.5, 0.1], [0.1, 0.3]]
# each built-in object from a config with only its required parameters,
# and the library call with the defaults the config has always used
DEFAULT_CASES = {
    "euclidean": ("manifold", {"name": "euclidean"},
                  lambda: geometry.euclidean(2)),
    "hyperbolic_half_plane": ("manifold", {"name": "hyperbolic_half_plane"},
                              geometry.hyperbolic_half_plane),
    "sphere_stereographic": ("manifold", {"name": "sphere_stereographic"},
                             geometry.sphere_stereographic),
    "constant": ("profile", {"name": "constant"},
                 lambda: profiles.constant_profile(1.0)),
    "linear": ("profile", {"name": "linear"},
               lambda: profiles.linear_profile([1.0, 0.0], 0.0)),
    "quadratic_form": ("profile", {"name": "quadratic_form", "matrix": MATRIX},
                       lambda: profiles.quadratic_form_profile(MATRIX, None)),
    "radial_power": ("profile", {"name": "radial_power", "exponent": 3.0},
                     lambda: profiles.radial_power_profile(1.0, 3.0, None)),
    "gaussian_bump": ("profile", {"name": "gaussian_bump",
                                  "center": [0.5, 1.0]},
                      lambda: profiles.gaussian_bump_profile(
                          1.0, [0.5, 1.0], 1.0)),
    "mollifier": ("net", "mollifier", profiles.mollifier_net),
    "asymmetric": ("net", "asymmetric", profiles.asymmetric_net),
    "signed": ("net", "signed", profiles.signed_net),
}


@pytest.mark.parametrize("kind, given, expected", DEFAULT_CASES.values(),
                         ids=DEFAULT_CASES.keys())
def test_build_defaults_are_pinned(kind, given, expected):
    assert set(DEFAULT_CASES) == (set(config.KNOWN_MANIFOLDS)
                                  | set(config.KNOWN_PROFILES)
                                  | set(config.KNOWN_NETS))
    cfg = config.parse_config(json.dumps({**NO_EPS, kind: given}))
    build = {"manifold": config.build_model, "profile": config.build_profile,
             "net": config.build_net}[kind]
    got, want = build(cfg), expected()
    points = np.array([[0.1, 0.5], [0.3, 1.2], [-0.4, 2.0]])
    if kind == "manifold":
        assert (got.name, got.dim) == (want.name, want.dim)
        for x in points:
            assert np.array_equal(got.metric_at(x), want.metric_at(x))
    elif kind == "profile":
        for x in points:
            assert got.f(x) == want.f(x)
            assert np.array_equal(got.df(x), want.df(x))
    else:
        us = np.linspace(-0.02, 0.02, 9)
        assert got.l1_bound == want.l1_bound
        assert np.array_equal(got.eval(0.01, us), want.eval(0.01, us))


def test_import_loads_no_scipy():
    # scipy is needed by verify_strict_delta_net alone, which imports it
    import impulse_geo

    src = os.path.dirname(os.path.dirname(impulse_geo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, impulse_geo, impulse_geo.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
