"""Exception types and warning categories shared across the package."""


class LmgAdiabatError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(LmgAdiabatError, ValueError):
    """Operands have incompatible shapes or lengths."""


class ResonantDetuningError(LmgAdiabatError, ValueError):
    """|delta| equals the resonator frequency: effective coefficients diverge."""


class InvalidWeightError(LmgAdiabatError, ValueError):
    """Requested collective-spin weight is incompatible with the spin number."""


class ParityMismatchError(LmgAdiabatError, ValueError):
    """The scenario case requires the other parity of the spin number."""


class InvalidInitialStateError(LmgAdiabatError, ValueError):
    """Initial density matrix fails trace/Hermiticity/positivity checks."""


class StepFailureError(LmgAdiabatError, RuntimeError):
    """The integrator could not hold its accuracy contract at the configured step."""


class CutoffTooSmallError(LmgAdiabatError, RuntimeError):
    """The Fock truncation visibly distorts the full-model trajectory."""


class ConfigError(LmgAdiabatError, ValueError):
    """Invalid configuration input."""


class ParseError(ConfigError):
    """Configuration file or override string could not be parsed."""


class ValidationError(ConfigError):
    """Configuration parsed but violates invariants; the message lists all of them."""


class RegimeWarning(UserWarning):
    """Scenario parameters do not realize the regime its case label implies."""
