"""Exception taxonomy shared by the whole package.

Everything user-facing derives from LelongLabError so the CLI can map
failures onto exit codes without guessing: malformed input and violated
invariants are ValueErrors, numerical non-convergence is a RuntimeError
that still carries the best estimate seen.
"""


class LelongLabError(Exception):
    """Base class for all package errors."""


class InputError(LelongLabError, ValueError):
    """Malformed or inconsistent user input (bad JSON, bad field, bad flag)."""


class DomainError(LelongLabError, ValueError):
    """A point or parameter lies outside the domain of the requested quantity."""


class EmptyLeafError(LelongLabError, ValueError):
    """The leaf plaque does not meet the polydisc, so the atom carries no mass."""


class NormalizationError(LelongLabError, ValueError):
    """A harmonic density cannot be (or is not) normalized to 1 at the base point."""


class InvalidSpecError(LelongLabError, ValueError):
    """A harmonic spec violates a structural invariant (signs, modes, positivity)."""


class UnsupportedCurrentError(LelongLabError, ValueError):
    """The requested engine has no closed form / no bound for this current."""


class NumericalFailure(LelongLabError, RuntimeError):
    """A computation gave no usable number: no convergence, or a result that is not finite."""


class QuadratureFailure(NumericalFailure):
    """Adaptive quadrature failed to reach tolerance.

    Carries the best estimate and its error bound so callers can decide
    whether the partial answer is still useful. A lockstep failure also
    carries its job and the indices of the ranges it leaves unresolved.
    """

    def __init__(self, message, best_estimate, error_estimate, job=None, ranges=()):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
        self.job = job
        self.ranges = ranges
