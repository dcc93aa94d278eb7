"""Exception hierarchy shared by all tuttekit modules."""


class TuttekitError(Exception):
    """Base class for all errors raised by tuttekit."""

    code = "error"


class UnknownVariableError(TuttekitError):
    """Substitution or evaluation touched a variable the polynomial does not declare."""

    code = "unknown-variable"


class NonCentralError(TuttekitError):
    """Rank was requested for a subset of hyperplanes with empty common intersection."""

    code = "non-central-subset"


class InvalidHyperplaneError(TuttekitError):
    """A zero normal paired with a nonzero offset does not define a hyperplane."""

    code = "invalid-hyperplane"


class LoopContractionError(TuttekitError):
    """Contraction along a degenerate (loop) hyperplane is undefined."""

    code = "loop-contraction"


class BadPrimeError(TuttekitError):
    """Reduction mod p changed the semimatroid; carries a witness subset when known."""

    code = "bad-prime"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExceededError(TuttekitError):
    """Point enumeration would exceed the configured budget."""

    code = "budget-exceeded"

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class InconsistentSamplesError(TuttekitError):
    """Interpolation oversampling disagreed with the fitted polynomial."""

    code = "inconsistent-samples"


class ConsistencyError(TuttekitError):
    """Two exact routes to the same quantity disagreed: an internal fault."""

    code = "consistency"


class FamilyError(TuttekitError):
    """Invalid family specification or a family without the requested oracle."""

    code = "family-error"


class MethodError(TuttekitError, ValueError):
    """The chosen method cannot run on this input with these parameters."""

    code = "bad-method"


class InputFormatError(TuttekitError):
    """Malformed arrangement, vector-configuration, or graph file."""

    code = "input-format"
