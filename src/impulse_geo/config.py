"""Declarative scenario configuration: a strict, versioned JSON schema.

The schema is flat key-value JSON (documented in the README).  Parsing is
strict: unknown keys anywhere are rejected with the list of known keys, so
a typo never silently changes a run.  Values are kept as plain Python
containers so parse -> serialize -> parse is the identity; model, profile
and net objects are built on demand by the ``build_*`` functions.
"""

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import geometry, profiles
from .dynamics import InitialData
from .errors import ConfigError

__all__ = [
    "ScenarioConfig", "parse_config", "serialize_config", "load_config",
    "build_model", "build_profile", "build_net", "build_data",
    "KNOWN_MANIFOLDS", "KNOWN_PROFILES", "KNOWN_NETS",
]

SCHEMA_VERSION = 1

KNOWN_MANIFOLDS = {
    "euclidean": {"dim"},
    "hyperbolic_half_plane": set(),
    "sphere_stereographic": set(),
}
KNOWN_PROFILES = {
    "constant": {"value"},
    "linear": {"coeffs", "offset"},
    "quadratic_form": {"matrix", "center"},
    "radial_power": {"amplitude", "exponent", "center"},
    "gaussian_bump": {"amplitude", "center", "width"},
}
KNOWN_NETS = ("mollifier", "asymmetric", "signed")

_TOP_KEYS = {
    "schema_version", "manifold", "profile", "net", "data", "eps",
    "eps_schedule", "u_end", "u_probes", "tolerances", "existence",
    "growth", "samples", "seed", "workers", "output",
}
_DATA_KEYS = {"x0", "xdot0", "v0", "vdot0"}
_TOL_KEYS = {"rtol", "atol", "picard_tol", "net_tol"}
_EXISTENCE_KEYS = {"b", "c", "grid", "max_iter", "picard_grid"}
_EXISTENCE_INTEGERS = {"grid", "max_iter", "picard_grid"}
_GROWTH_KEYS = {"center", "directions", "radii", "margin"}
_OUTPUT_KEYS = {"csv", "svg", "text"}


@dataclass
class ScenarioConfig:
    schema_version: int = SCHEMA_VERSION
    manifold: dict = field(default_factory=lambda: {"name": "euclidean", "dim": 2})
    profile: dict | None = None
    net: str | None = None
    data: dict | None = None
    eps: float | None = None
    eps_schedule: list | None = None
    u_end: float = 1.0
    u_probes: list | None = None
    tolerances: dict = field(default_factory=dict)
    existence: dict = field(default_factory=dict)
    growth: dict | None = None
    samples: int = 201
    seed: int = 0
    workers: int | None = None
    output: dict = field(default_factory=dict)

    def tol(self, key, default):
        return float(self.tolerances.get(key, default))


def _require_keys(section, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section '{section}' must be an object")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key '{unknown[0]}' in section '{section}' "
            f"(known: {', '.join(sorted(allowed))})")


def _check_named(section, mapping, registry):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section '{section}' must be an object")
    name = mapping.get("name")
    if name not in registry:
        raise ConfigError(
            f"unknown {section} name {name!r} "
            f"(known: {', '.join(sorted(registry))})")
    _require_keys(section, mapping, registry[name] | {"name"})


def _number(key, value):
    """A finite JSON number (not a boolean, NaN or Infinity) as a float."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _integer(key, value):
    """A finite JSON number with an integral value (``9`` or ``9.0``) as an
    int; ``9.9`` is rejected, never truncated."""
    number = _number(key, value)
    if not number.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(number)


def _numbers(key, values, dim=None):
    """A list of numbers as floats, of ``dim`` entries where it is a vector
    on the manifold."""
    if not isinstance(values, list) or dim not in (None, len(values)):
        size = "" if dim is None else f"{dim} "
        raise ConfigError(f"{key} must be a list of {size}numbers")
    return [_number(key, v) for v in values]


def _rows(key, rows, dim, count=None):
    """A list of ``dim``-vectors, ``count`` of them if given."""
    if not isinstance(rows, list) or count not in (None, len(rows)):
        raise ConfigError(f"{key} must be a list of lists of {dim} numbers")
    for row in rows:
        _numbers(key, row, dim)


def _check_sections(raw, dim):
    """Numbers and vector lengths in the profile, growth, tolerances,
    existence and output sections."""
    profile = raw.get("profile") or {}
    if profile.get("name") == "linear":
        _numbers("profile.coeffs", profile.get("coeffs", [1.0, 0.0]), dim)
    for key, value in profile.items():
        if key == "matrix":
            _rows("profile.matrix", value, dim, count=dim)
        elif key == "center" and value is not None:
            _numbers("profile.center", value, dim)
        elif key not in ("name", "center", "coeffs"):
            _number(f"profile.{key}", value)
    for key, value in (raw.get("growth") or {}).items():
        if key == "directions":
            _rows("growth.directions", value, dim)
            if any(not any(row) for row in value):
                raise ConfigError("growth.directions must be nonzero vectors")
        elif key in ("center", "radii"):
            _numbers(f"growth.{key}", value, dim if key == "center" else None)
        else:
            _number(f"growth.{key}", value)
    for section in ("tolerances", "existence"):
        for key, value in raw.get(section, {}).items():
            if section == "existence" and key in _EXISTENCE_INTEGERS:
                _integer(f"{section}.{key}", value)
            else:
                _number(f"{section}.{key}", value)
    for key, value in raw.get("output", {}).items():
        if not isinstance(value, str):
            raise ConfigError(f"output.{key} must be a file path")


def parse_config(text):
    """Parse and validate a JSON configuration string."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys("top level", raw, _TOP_KEYS)

    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {raw.get('schema_version')!r}")

    manifold = raw.get("manifold")
    if manifold is None:
        raise ConfigError("config must declare a manifold")
    _check_named("manifold", manifold, KNOWN_MANIFOLDS)
    dim = manifold.get("dim", 2)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ConfigError("manifold dim must be a positive integer")

    profile = raw.get("profile")
    if profile is not None:
        _check_named("profile", profile, KNOWN_PROFILES)

    net = raw.get("net")
    if net is not None and net not in KNOWN_NETS:
        raise ConfigError(
            f"unknown net name {net!r} (known: {', '.join(KNOWN_NETS)})")

    data = raw.get("data")
    if data is not None:
        _require_keys("data", data, _DATA_KEYS)
        for key in ("x0", "xdot0"):
            _numbers(f"data.{key}", data.get(key))
        for key in ("v0", "vdot0"):
            if key in data:
                _number(f"data.{key}", data[key])

    eps = raw.get("eps")
    eps_schedule = raw.get("eps_schedule")
    if eps is not None and eps_schedule is not None:
        raise ConfigError("give either eps or eps_schedule, not both")
    if eps is not None and not 0.0 < _number("eps", eps) <= 0.5:
        raise ConfigError("eps must lie in (0, 0.5]")
    if eps_schedule is not None:
        if not isinstance(eps_schedule, list) or not eps_schedule:
            raise ConfigError("eps_schedule must be a non-empty list")
        vals = _numbers("eps_schedule", eps_schedule)
        if any(not 0.0 < e <= 0.5 for e in vals):
            raise ConfigError("every eps in the schedule must lie in (0, 0.5]")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise ConfigError("eps_schedule must be strictly decreasing")

    for section, allowed in (("tolerances", _TOL_KEYS),
                             ("existence", _EXISTENCE_KEYS),
                             ("output", _OUTPUT_KEYS)):
        if section in raw:
            _require_keys(section, raw[section], allowed)
    if raw.get("growth") is not None:
        _require_keys("growth", raw["growth"], _GROWTH_KEYS)
    _check_sections(raw, dim)
    samples = _integer("samples", raw.get("samples", 201))
    if samples < 1:
        raise ConfigError("samples must be positive")
    workers = raw.get("workers")

    cfg = ScenarioConfig(
        schema_version=SCHEMA_VERSION,
        manifold=manifold,
        profile=profile,
        net=net,
        data=data,
        eps=None if eps is None else float(eps),
        eps_schedule=None if eps_schedule is None else [float(e) for e in eps_schedule],
        u_end=_number("u_end", raw.get("u_end", 1.0)),
        u_probes=(None if raw.get("u_probes") is None
                  else _numbers("u_probes", raw["u_probes"])),
        tolerances=dict(raw.get("tolerances", {})),
        existence=dict(raw.get("existence", {})),
        growth=raw.get("growth"),
        samples=samples,
        seed=_integer("seed", raw.get("seed", 0)),
        workers=None if workers is None else _integer("workers", workers),
        output=dict(raw.get("output", {})),
    )
    return cfg


def serialize_config(cfg):
    """Canonical JSON for a configuration (round-trips through parsing)."""
    out = {}
    for key, value in asdict(cfg).items():
        if value is None:
            continue
        if key in ("tolerances", "existence", "output") and not value:
            continue
        out[key] = value
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def build_model(cfg):
    name = cfg.manifold["name"]
    if name == "euclidean":
        return geometry.euclidean(int(cfg.manifold.get("dim", 2)))
    if name == "hyperbolic_half_plane":
        return geometry.hyperbolic_half_plane()
    return geometry.sphere_stereographic()


def build_profile(cfg):
    if cfg.profile is None:
        raise ConfigError("this command needs a profile section")
    params = cfg.profile
    name = params["name"]
    if name == "constant":
        return profiles.constant_profile(params.get("value", 1.0))
    if name == "linear":
        return profiles.linear_profile(params.get("coeffs", [1.0, 0.0]),
                                       params.get("offset", 0.0))
    if name == "quadratic_form":
        if "matrix" not in params:
            raise ConfigError("quadratic_form profile needs a matrix")
        return profiles.quadratic_form_profile(params["matrix"],
                                               params.get("center"))
    if name == "radial_power":
        if "exponent" not in params:
            raise ConfigError("radial_power profile needs an exponent")
        return profiles.radial_power_profile(
            params.get("amplitude", 1.0), params["exponent"], params.get("center"))
    if params.get("center") is None:
        raise ConfigError("gaussian_bump profile needs a center")
    return profiles.gaussian_bump_profile(
        params.get("amplitude", 1.0), params["center"], params.get("width", 1.0))


def build_net(cfg):
    if cfg.net is None:
        raise ConfigError("this command needs a net name")
    if cfg.net == "mollifier":
        return profiles.mollifier_net()
    if cfg.net == "asymmetric":
        return profiles.asymmetric_net()
    return profiles.signed_net()


def build_data(cfg, dim):
    if cfg.data is None:
        raise ConfigError("this command needs a data section")
    x0 = np.asarray(cfg.data["x0"], dtype=float)
    xdot0 = np.asarray(cfg.data["xdot0"], dtype=float)
    if x0.size != dim or xdot0.size != dim:
        raise ConfigError(
            f"data dimension {x0.size} does not match the manifold ({dim})")
    return InitialData(x0, xdot0, float(cfg.data.get("v0", 0.0)),
                       float(cfg.data.get("vdot0", 0.0)))
