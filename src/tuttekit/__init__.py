"""tuttekit: exact Tutte, characteristic, coboundary, multivariate and
arithmetic Tutte polynomials of hyperplane arrangements and integer vector
configurations, with four independent engines and a finite-field point
counting method."""

from .arithmetic import (
    VectorConfig,
    arithmetic_char_poly,
    arithmetic_tutte,
    multiplicity,
    multivariate_tutte,
    toric_evaluations,
    toric_point_profile,
    tutte_from_multivariate,
    zonotope_evaluations,
)
from .arrangement import Arrangement
from .errors import (
    BadPrimeError,
    BudgetExceededError,
    FamilyError,
    InconsistentSamplesError,
    InputFormatError,
    InvalidHyperplaneError,
    LoopContractionError,
    NonCentralError,
    TuttekitError,
    UnknownVariableError,
)
from .finite_field import (
    DEFAULT_BUDGET,
    coboundary_ffm,
    point_profile,
    reduce_mod_p,
    select_primes,
)
from .multipoly import MultiPoly
from .poset import IntersectionPoset, intersection_poset
from .tutte import (
    char_poly,
    coboundary_transform,
    scalar_invariants,
    tutte_activity,
    tutte_delcon,
    tutte_from_coboundary,
    tutte_subset,
    validate_chi_shape,
    whitney_char,
)

__version__ = "0.1.0"
