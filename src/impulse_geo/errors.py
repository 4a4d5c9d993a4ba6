"""Exception types shared across the package."""


class ImpulseGeoError(Exception):
    """Base class for all errors raised by this package."""


class ChartDomainError(ImpulseGeoError):
    """A point lies outside the declared chart domain of a manifold."""


class ConfigError(ImpulseGeoError, ValueError):
    """An input failed validation."""


class NumericalError(ImpulseGeoError):
    """Base class for runtime numerical failures."""


class IntegrationFailure(NumericalError):
    """Integration stopped before reaching the requested endpoint.

    Attributes
    ----------
    reason : str
        One of ``"blow_up"``, ``"chart_escape"``, ``"step_underflow"``,
        ``"step_limit"``.
    u : float
        Parameter value of the last computed state.
    state : numpy.ndarray
        Raw state vector at ``u``.
    phase : str or None
        Integration phase in which the failure occurred.
    partial : GeodesicPath, DensePath or None
        The part of the trajectory completed before the failure, or None
        when nothing was.  A failure from :mod:`impulse_geo.dynamics`
        carries a :class:`~impulse_geo.dynamics.GeodesicPath` of the phases
        done and the failing phase's own piece (``phase_marks`` None for a
        background path); one from
        :func:`~impulse_geo.odesolve.solve_rk45` called directly carries
        that phase's :class:`~impulse_geo.odesolve.DensePath`.
    diagnostics : PathDiagnostics or None
        The work done up to the failure: accepted steps, rejections and
        right-hand side evaluations, with the energies left NaN.  A failure
        from :mod:`impulse_geo.dynamics` counts the phases done and the
        failing phase, and its ``partial`` holds the same counts; one from
        :func:`~impulse_geo.odesolve.solve_rk45` called directly counts
        that phase.  None on a failure built by hand.
    """

    def __init__(self, reason, u, state, phase=None, message=None, partial=None):
        self.reason = reason
        self.u = u
        self.state = state
        self.phase = phase
        self.partial = partial
        self.diagnostics = None
        super().__init__(message or f"integration failed ({reason}) at u={u:.6g}")


class CertificateViolation(NumericalError):
    """A fixed-point iterate left the certified containment region."""


class ShootingFailure(NumericalError):
    """Geodesic shooting did not converge."""
