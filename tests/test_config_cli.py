import json

import pytest

from impulse_geo import config
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


def test_cli_env_workers_override(tmp_path, monkeypatch):
    payload = dict(BASE)
    del payload["eps"]
    payload["eps_schedule"] = [0.125, 0.0625]
    payload["u_probes"] = [-0.5, 0.5, 1.0]
    payload["output"] = {"csv": str(tmp_path / "env.csv")}
    cfg = write_cfg(tmp_path, payload)
    monkeypatch.setenv("IMPULSE_GEO_WORKERS", "2")
    assert main(["sweep", "--config", cfg]) == 0
    monkeypatch.setenv("IMPULSE_GEO_WORKERS", "not-a-number")
    assert main(["sweep", "--config", cfg]) == 2


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
