"""Popular difference sets over F_2^n.

Exact autocorrelation via the fast Walsh-Hadamard transform, popular
difference sets D_c(A) with rational thresholds decided in big-integer
arithmetic, a certified randomized construction of a set A' with
A' + A' contained in D_c(A), and exact maximum-subspace search.
"""

from .construction import (
    BoundaryAmbiguous,
    Budgets,
    Certificate,
    ConstructionPlan,
    DegenerateInput,
    PlanInfeasible,
    RetryExhausted,
    SoundnessError,
    VerificationError,
    choose_sigma,
    construct_popular_sumset,
    filter_a2,
    find_lemma_set,
    lemma_accept,
    lemma_r,
    refine_a1,
    restrict_holds,
    sample_intersection,
    theorem_bound,
    verify_certificate,
    verify_containment,
)
from .correlation import (
    Autocorrelation,
    DcReport,
    autocorrelation,
    dc_threshold_report,
    naive_autocorrelation,
    popular_difference_set,
)
from .f2n import (
    MAX_DIM,
    DenseSet,
    f2set_dumps,
    f2set_loads,
    full_set,
    linear_subspace,
    make_set,
    niveau_set,
    random_set,
    read_set,
    set_sha256,
    sumset,
    write_set,
)
from .rng import SplitMix64
from .subspace import (
    SEARCH_DIM_CAP,
    SubspaceBasis,
    max_subspace_in,
)

__version__ = "0.1.0"

__all__ = [
    "Autocorrelation",
    "BoundaryAmbiguous",
    "Budgets",
    "Certificate",
    "ConstructionPlan",
    "DcReport",
    "DegenerateInput",
    "DenseSet",
    "MAX_DIM",
    "PlanInfeasible",
    "RetryExhausted",
    "SEARCH_DIM_CAP",
    "SoundnessError",
    "SplitMix64",
    "SubspaceBasis",
    "VerificationError",
    "autocorrelation",
    "choose_sigma",
    "construct_popular_sumset",
    "dc_threshold_report",
    "f2set_dumps",
    "f2set_loads",
    "filter_a2",
    "find_lemma_set",
    "full_set",
    "lemma_accept",
    "lemma_r",
    "linear_subspace",
    "make_set",
    "max_subspace_in",
    "naive_autocorrelation",
    "niveau_set",
    "popular_difference_set",
    "random_set",
    "read_set",
    "refine_a1",
    "restrict_holds",
    "sample_intersection",
    "set_sha256",
    "sumset",
    "theorem_bound",
    "verify_certificate",
    "verify_containment",
    "write_set",
]
