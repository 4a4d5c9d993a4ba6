"""Declarative scenario configuration: a strict, versioned JSON schema.

The schema (documented in the README) is written once, in the tables below:
a check per key of each section, and per built-in manifold and profile its
constructor and parameters.  Unknown keys anywhere are rejected with the
list of known keys, so a typo never silently changes a run.  Values are
kept as plain Python containers so parse -> serialize -> parse is the
identity; models, profiles and nets are built on demand by ``build_*``.
"""

import json
import sys
from dataclasses import dataclass, field, asdict

from . import geometry, profiles
from .dynamics import InitialData
from .errors import ConfigError
from .scenarios import builtin_nets

__all__ = [
    "ScenarioConfig", "parse_config", "serialize_config", "load_config",
    "build_model", "build_profile", "build_net", "build_data",
    "KNOWN_MANIFOLDS", "KNOWN_PROFILES", "KNOWN_NETS",
]

SCHEMA_VERSION = 1


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


# Each check takes the key (for its message), the value and the manifold
# dimension, and returns the value to store.


def _number(key, value, dim=None):
    """A finite JSON number (not a boolean, NaN, Infinity or an integer
    beyond the float range), as given."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return value


def _integer(key, value, dim=None):
    """A number with an integral value (``9`` or ``9.0``) as an int; ``9.9``
    is rejected, never truncated."""
    if not float(_number(key, value)).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _numbers(key, values, dim=None):
    """A list of numbers, of ``dim`` entries if given."""
    if not isinstance(values, list) or dim not in (None, len(values)):
        size = "" if dim is None else f"{dim} "
        raise ConfigError(f"{key} must be a list of {size}numbers")
    for value in values:
        _number(key, value)
    return values


def _list(key, values, dim=None):
    return _numbers(key, values)


def _point(key, values, dim):
    return values if values is None else _numbers(key, values, dim)


def _rows(key, rows, dim, count=None):
    """A list of ``dim``-vectors, ``count`` of them if given."""
    if not isinstance(rows, list) or count not in (None, len(rows)):
        raise ConfigError(f"{key} must be a list of lists of {dim} numbers")
    for row in rows:
        _numbers(key, row, dim)
    return rows


def _matrix(key, rows, dim):
    return _rows(key, rows, dim, count=dim)


def _directions(key, rows, dim):
    if any(not any(row) for row in _rows(key, rows, dim)):
        raise ConfigError(f"{key} must be nonzero vectors")
    return rows


def _path(key, value, dim):
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a file path")
    return value


def _dimension(key, value, dim):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError("manifold dim must be a positive integer")
    return value


def _width(key, value):
    if not 0.0 < _number(key, value) <= 0.5:
        raise ConfigError("eps must lie in (0, 0.5]")
    return float(value)


def _schedule(key, values):
    if not isinstance(values, list) or not values:
        raise ConfigError("eps_schedule must be a non-empty list")
    widths = [float(e) for e in _numbers(key, values)]
    if any(not 0.0 < e <= 0.5 for e in widths):
        raise ConfigError("every eps in the schedule must lie in (0, 0.5]")
    if any(b >= a for a, b in zip(widths, widths[1:])):
        raise ConfigError("eps_schedule must be strictly decreasing")
    return widths


def _count(key, value):
    count = _integer(key, value)
    if count < 1:
        raise ConfigError(f"{key} must be positive")
    return count


def _net(key, value):
    if value not in KNOWN_NETS:
        raise ConfigError(
            f"unknown net name {value!r} (known: {', '.join(KNOWN_NETS)})")
    return value


_REQUIRED = object()  # a parameter without default, needed to build

# name -> (constructor, {parameter: (check, default)}), the parameters in
# the constructor's order
KNOWN_MANIFOLDS = {
    "euclidean": (geometry.euclidean, {"dim": (_dimension, 2)}),
    "hyperbolic_half_plane": (geometry.hyperbolic_half_plane, {}),
    "sphere_stereographic": (geometry.sphere_stereographic, {}),
}
KNOWN_PROFILES = {
    "constant": (profiles.constant_profile, {"value": (_number, 1.0)}),
    "linear": (profiles.linear_profile, {"coeffs": (_numbers, [1.0, 0.0]),
                                         "offset": (_number, 0.0)}),
    "quadratic_form": (profiles.quadratic_form_profile,
                       {"matrix": (_matrix, _REQUIRED),
                        "center": (_point, None)}),
    "radial_power": (profiles.radial_power_profile,
                     {"amplitude": (_number, 1.0),
                      "exponent": (_number, _REQUIRED),
                      "center": (_point, None)}),
    "gaussian_bump": (profiles.gaussian_bump_profile,
                      {"amplitude": (_number, 1.0),
                       "center": (_point, _REQUIRED),
                       "width": (_number, 1.0)}),
}
KNOWN_NETS = tuple(builtin_nets())

# section -> {key: check}
_SECTIONS = {
    "data": {"x0": _list, "xdot0": _list, "v0": _number, "vdot0": _number},
    "tolerances": dict.fromkeys(("rtol", "atol", "picard_tol", "net_tol"),
                                _number),
    "existence": {"b": _number, "c": _number, "grid": _integer,
                  "max_iter": _integer, "picard_grid": _integer},
    "growth": {"center": _numbers, "directions": _directions,
               "radii": _list, "margin": _number},
    "output": dict.fromkeys(("csv", "svg", "text"), _path),
}
# section keys that a given section must set
_SECTION_REQUIRED = {"data.x0", "data.xdot0"}

# top-level key -> check; the other keys are the sections and named objects
_VALUES = {
    "net": _net, "eps": _width, "eps_schedule": _schedule,
    "u_end": lambda key, value: float(_number(key, value)),
    "u_probes": lambda key, values: [float(v) for v in _numbers(key, values)],
    "samples": _count, "seed": _integer, "workers": _integer}
_DEFAULTS = ScenarioConfig()


def _require_keys(section, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section '{section}' must be an object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key '{unknown[0]}' in section '{section}' "
            f"(known: {', '.join(sorted(allowed))})")


def _sets(raw, key):
    """Whether the config sets ``key``; null sets only a key whose default
    is not None, and is then checked like any other value."""
    return key in raw and (raw[key] is not None
                           or getattr(_DEFAULTS, key) is not None)


def parse_config(text):
    """Parse and validate a JSON configuration string."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer too long to convert
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys("top level", raw, vars(_DEFAULTS))
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {raw.get('schema_version')!r}")
    if raw.get("manifold") is None:
        raise ConfigError("config must declare a manifold")

    values, dim = {}, 2  # both built-in surfaces are 2-dimensional
    for section, registry in (("manifold", KNOWN_MANIFOLDS),
                              ("profile", KNOWN_PROFILES)):
        if not _sets(raw, section):
            continue
        values[section] = mapping = raw[section]
        if not isinstance(mapping, dict):
            raise ConfigError(f"section '{section}' must be an object")
        name = mapping.get("name")
        if not isinstance(name, str) or name not in registry:
            raise ConfigError(
                f"unknown {section} name {name!r} "
                f"(known: {', '.join(sorted(registry))})")
        params = registry[name][1]
        _require_keys(section, mapping, {"name", *params})
        # a default is checked like a given value: linear coeffs have dim
        for key, (check, default) in params.items():
            value = mapping.get(key, default)
            if value is not _REQUIRED:
                check(f"{section}.{key}", value, dim)
        dim = mapping.get("dim", dim)  # set by a euclidean manifold only

    if _sets(raw, "eps") and _sets(raw, "eps_schedule"):
        raise ConfigError("give either eps or eps_schedule, not both")
    for key, check in _VALUES.items():
        if _sets(raw, key):
            values[key] = check(key, raw[key])

    for section, checks in _SECTIONS.items():
        if not _sets(raw, section):
            continue
        _require_keys(section, raw[section], checks)
        values[section] = {
            key: check(f"{section}.{key}", raw[section].get(key), dim)
            for key, check in checks.items()
            if key in raw[section] or f"{section}.{key}" in _SECTION_REQUIRED}
    return ScenarioConfig(**values)


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
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}") from None
    return parse_config(text)


def _construct(section, params, registry):
    """The object named by ``params``, built from the given parameters and
    the table's defaults for the others."""
    make, spec = registry[params["name"]]
    for key, (_, default) in spec.items():
        if default is _REQUIRED and params.get(key) is None:
            article = "an" if key[0] in "aeiou" else "a"
            raise ConfigError(
                f"{params['name']} {section} needs {article} {key}")
    return make(*(params.get(key, default)
                  for key, (_, default) in spec.items()))


def build_model(cfg):
    return _construct("manifold", cfg.manifold, KNOWN_MANIFOLDS)


def build_profile(cfg):
    if cfg.profile is None:
        raise ConfigError("this command needs a profile section")
    return _construct("profile", cfg.profile, KNOWN_PROFILES)


def build_net(cfg):
    if cfg.net is None:
        raise ConfigError("this command needs a net name")
    return builtin_nets()[cfg.net]


def build_data(cfg, dim):
    if cfg.data is None:
        raise ConfigError("this command needs a data section")
    size = len(cfg.data["x0"])
    if size != dim or len(cfg.data["xdot0"]) != dim:
        raise ConfigError(
            f"data dimension {size} does not match the manifold ({dim})")
    return InitialData(**cfg.data)
