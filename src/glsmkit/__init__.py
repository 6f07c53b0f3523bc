"""glsmkit: exact computation for torus gauged linear sigma models.

Validate a model's defining axioms, enumerate its GIT/sector combinatorics,
present sector cohomology rings with exact normal forms, and compute
truncated I-function series with their specialization cross-checks.  All
arithmetic is exact (arbitrary-precision rationals, cyclotomic phases).
"""

ENGINE_VERSION = "0.1.0"
__version__ = ENGINE_VERSION

from .model import (  # noqa: E402,F401
    GLSMModel,
    InputError,
    InternalError,
    PotentialPolynomial,
    model_hash,
    parse_model,
    serialize_model,
)
from .validate import (  # noqa: E402,F401
    BudgetExceededError,
    ValidationReport,
    invariants_trivial,
    j_membership,
    no_strict_semistable,
    potential_check,
    validate_model,
)
from .sectors import (  # noqa: E402,F401
    DegenerateStabilityError,
    SectorLabel,
    age,
    effective_degrees,
    inertia_sectors,
    sector_of_degree,
    semistable_supports,
    sr_generators,
    theta_degree,
)
from .rings import (  # noqa: E402,F401
    CohClass,
    InfiniteRingError,
    RingMismatchError,
    SectorRing,
    build_ring,
    class_from_character,
    divides_ideal,
)
from .series import (  # noqa: E402,F401
    GradedSeries,
    HypothesisError,
    Insertion,
    LaurentZ,
    big_i_function,
    compact_type_report,
    exp_factor,
    glsm_i_function,
    hyper_factor,
    series_compare,
    series_from_json,
    series_to_json,
    twist_novikov,
    z_partial,
)
from .specialize import (  # noqa: E402,F401
    CiSpec,
    FjrwSpec,
    HybridSpec,
    ci_ambient_series,
    ci_build,
    ci_compare,
    fjrw_build,
    fjrw_crosscheck,
    fjrw_direct_series,
    hybrid_build,
    hybrid_crosscheck,
    hybrid_direct_series,
)
from .latexout import render_latex  # noqa: E402,F401
