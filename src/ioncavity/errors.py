"""Exception types shared across the package."""


class IonCavityError(Exception):
    """Base class for all package errors."""


class UnstableResonatorError(IonCavityError):
    """Cavity geometry outside the near-concentric stability region."""


class PolarizationError(IonCavityError):
    """Invalid polarization, e.g. a longitudinal field component."""


class SelectionRuleError(IonCavityError):
    """Angular-momentum bookkeeping applied to an invalid state pair."""


class FrameConsistencyError(IonCavityError):
    """Two coherent couplings demand incompatible rotating frames."""


class SteadyStateError(IonCavityError):
    """Steady-state solve failed or the stationary state is not unique."""


class StiffnessError(IonCavityError):
    """Adaptive integrator step size underflowed.

    Carries ``fastest_timescale`` (seconds) as a diagnostic of the scale
    the integrator was forced to resolve.
    """

    def __init__(self, message, fastest_timescale=None):
        super().__init__(message)
        self.fastest_timescale = fastest_timescale


class FitNonConvergenceError(IonCavityError):
    """Nonlinear least squares failed to converge.

    Carries the final ``residual`` vector and ``cost`` for post-mortems.
    """

    def __init__(self, message, residual=None, cost=None):
        super().__init__(message)
        self.residual = residual
        self.cost = cost


class BinningMismatchError(IonCavityError):
    """Two binned datasets do not share a common grid, or a duration is not whole bins."""


class ConfigError(IonCavityError):
    """Run configuration failed schema validation."""

    def __init__(self, message, problems=None):
        super().__init__(message)
        self.problems = list(problems or [])
