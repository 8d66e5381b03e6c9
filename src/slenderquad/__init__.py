"""Special quadrature for non-local slender-body theory in Stokes flow."""

from .finitepart import (
    LineDensity,
    SlenderParams,
    build_weight_table,
    centerline_velocity,
    eval_K,
    eval_K_all,
    eval_L,
    eval_Lambda,
)
from .geometry import (
    FiberCurve,
    PanelizedCurve,
    discretize,
    make_helix,
    make_straight,
)
from .nearsing import (
    eval_S,
    eval_S_regular,
    find_root,
    qkp_moments,
)
from .oracle import (
    AccuracyError,
    adaptive_integrate,
    diagonal_eigenvalues,
    g_pair,
    reference_K,
    reference_S,
    scaled_legendre,
)
from .quadcore import (
    PanelGrid,
    QuadratureRule,
    gauss_legendre,
    interpolate_to_uniform,
    legendre_eval,
    solve_vandermonde_transpose,
)

__version__ = "0.1.0"
