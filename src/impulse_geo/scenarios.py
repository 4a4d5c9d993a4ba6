"""Built-in scenario matrix exercised by the verification suite and CLI.

Three chart models times three profiles, with per-manifold initial data and
certificate ball sizes chosen so the nominal balls stay inside the charts.
The flat linear scenario is the analytically solvable anchor case: constant
unit gradient, vanishing Christoffel symbols, alpha = 2/3 exactly.
"""

from dataclasses import dataclass

from . import geometry, profiles
from .dynamics import InitialData

__all__ = ["Scenario", "builtin_models", "builtin_nets", "builtin_scenarios"]


@dataclass
class Scenario:
    name: str
    model: object
    profile: object
    data: InitialData
    b: float
    c: float


def builtin_models():
    return {
        "euclidean": geometry.euclidean(2),
        "hyperbolic_half_plane": geometry.hyperbolic_half_plane(),
        "sphere_stereographic": geometry.sphere_stereographic(),
    }


def builtin_nets():
    """Each built-in net under its name; the config's net names."""
    return {net.name: net for net in (profiles.mollifier_net(),
                                      profiles.asymmetric_net(),
                                      profiles.signed_net())}


# per-manifold anchors: initial data posed at u = -1 and certificate balls;
# the hyperbolic ball is small enough to keep x2 > 0 even after padding
_BASE = {
    "euclidean": (InitialData([0.0, 0.0], [1.0, 0.0]), 1.0, 1.0),
    "hyperbolic_half_plane": (InitialData([0.0, 1.0], [0.6, 0.4]), 0.3, 1.0),
    "sphere_stereographic": (InitialData([0.0, 0.5], [1.0, 0.0]), 1.0, 1.0),
}

# profile parameters per manifold; gaussian bumps sit near the point where
# the default trajectory crosses the shock so the impulse is actually felt
_PROFILES = {
    "euclidean": {
        "linear": lambda: profiles.linear_profile([1.0, 0.0]),
        "gaussian_bump": lambda: profiles.gaussian_bump_profile(
            1.0, [1.0, 0.0], 0.8),
        "quadratic_form": lambda: profiles.quadratic_form_profile(
            [[0.5, 0.1], [0.1, 0.3]], [0.0, 0.0]),
    },
    "hyperbolic_half_plane": {
        "linear": lambda: profiles.linear_profile([0.0, 1.0]),
        "gaussian_bump": lambda: profiles.gaussian_bump_profile(
            1.0, [0.8, 1.2], 0.8),
        "quadratic_form": lambda: profiles.quadratic_form_profile(
            [[0.5, 0.1], [0.1, 0.3]], [0.0, 1.0]),
    },
    "sphere_stereographic": {
        "linear": lambda: profiles.linear_profile([1.0, 0.2]),
        "gaussian_bump": lambda: profiles.gaussian_bump_profile(
            1.0, [1.0, 0.0], 0.8),
        "quadratic_form": lambda: profiles.quadratic_form_profile(
            [[0.5, 0.1], [0.1, 0.3]], [0.0, 0.5]),
    },
}


def builtin_scenarios():
    """The 3 x 3 model/profile matrix with per-manifold data and balls."""
    out = []
    models = builtin_models()
    for mname, model in models.items():
        data, b, c = _BASE[mname]
        for pname, make in _PROFILES[mname].items():
            out.append(Scenario(
                name=f"{mname}-{pname}",
                model=model,
                profile=make(),
                data=InitialData(data.x0.copy(), data.xdot0.copy(),
                                 data.v0, data.vdot0),
                b=b, c=c,
            ))
    return out
