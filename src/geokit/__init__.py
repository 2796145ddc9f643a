"""geokit: numerical geometric control for LTI state-space systems.

The toolkit computes invariant subspaces (reachable, unobservable,
output-nulling, input-containing, reachability), kernels of the reachability
and Rosenbrock matrix pencils, invariant zeros, and real eigenstructure-
assigning feedback matrices, together with seeded verification sweeps for
the structural rank identities connecting them.
"""

from .linalg import DEFAULT_TOL, Subspace, Tol
from .sysmodel import GenSpec, SystemQuad, dual_of, load_system, random_system
from .pencils import (
    PencilKernel,
    invariant_zeros,
    reach_pencil_kernel,
    rosenbrock_kernel,
    rosenbrock_kernels,
    uncontrollable_eigenvalues,
    validate_spectrum,
)
from .geometry import (
    friend_of,
    intersection_formula,
    intersection_formulas,
    morse_decomposition,
    reachability_on,
    reachable_subspace,
    rstar,
    sstar,
    sstar_sequence,
    unobservable_subspace,
    vstar,
    vstar_sequence,
)
from .assignment import (
    FeedbackResult,
    build_Kh,
    diag_krylov_saturation,
    min_distinct_spectrum,
    moore_check,
    place_poles,
    reach_on_Kh,
    synthesize_feedback,
)

__version__ = "0.1.0"
