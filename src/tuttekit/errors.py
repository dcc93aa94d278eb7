"""Exception hierarchy shared by all tuttekit modules, and the budget contract.

Every exponential loop runs under a work budget, `DEFAULT_BUDGET` units
unless the caller names one (None: no bound).  A loop that keeps a running
total of its units passes it to `charge` before the work it counts, and
`charge` raises BudgetExceededError, with that total as `required`, once it
exceeds the budget.  A loop whose whole cost is a power known before it
starts tests that power with `linalg.power_fits` instead, in its own words,
since it never forms the power.
"""

# The work budget when the caller names none.
DEFAULT_BUDGET = 10 ** 8


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
    """A computation would exceed the configured work budget."""

    code = "budget-exceeded"

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


def charge(required, budget, what):
    """Raise BudgetExceededError when a running total of `required` units
    exceeds the budget (None: no bound).  `what` says who needs them, with
    one %d for the total: "deletion-contraction needs at least %d recursion
    nodes"."""
    if budget is not None and required > budget:
        raise BudgetExceededError((what + ", over the budget %d") % (required, budget),
                                  required=required)


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
