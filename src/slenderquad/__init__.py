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
from .nearsing import eval_S, eval_S_regular
from .oracle import AccuracyError, reference_K, reference_S
from .quadcore import PanelGrid, QuadratureRule, gauss_legendre

__version__ = "0.1.0"
