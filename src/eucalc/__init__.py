"""Exact Euler calculus on piecewise-linear constructible functions.

The package provides an exact step-function algebra on the line (cf1d),
signed polytope/box sums on R^n (cfnd), closed-form kernels, the hybrid
transforms they induce (transforms), Euler-characteristic curves and
index-theoretic identities on embedded simplicial complexes (complexes),
numeric pushforward recovery from transform data (radon), and randomized
verification suites for every identity (verify).
"""

from .cf1d import CF1D, IntervalGenerator, recompose
from .cfnd import (
    CFND,
    ClosedPolytope,
    HalfOpenBox,
    box_product,
    cone_closure,
    convolve_nd,
    euler_integral_nd,
    evaluate,
    expand_box,
    is_cone_constructible,
    pushforward_linear,
    scene_from_json,
    translate,
)
from .complexes import (
    EmbeddedComplex,
    PLFunction,
    StepCurve,
    chi_open_ball_region,
    chi_region,
    distance_curves,
    ect,
    euler_bessel,
    euler_bessel_index,
    euler_characteristic,
    gr_index_check,
    index_formula_check,
    level_curve,
    level_index_check,
    lower_euler_integral,
    mesh_from_json,
    sublevel_curve,
    sublevel_from_level_check,
    sublevel_transform,
    upper_euler_integral,
)
from .geometry import (
    OrthantCone,
    Polytope,
    dist_to_simplex,
    max_dist_to_simplex,
    minkowski_points,
    polar_contains,
    support_value,
)
from .kernels import Kernel, compose_window, ecb, fourier, heaviside, laplace
from .radon import (
    RecoveryParams,
    chi_vanishing_check,
    radon_support_check,
    recover_pushforward,
)
from .transforms import (
    TransformGrid,
    ecb_transform,
    euler_fourier,
    euler_laplace,
    gr_euler_fourier,
    grid_eval,
    grid_to_csv,
    hybrid_transform,
)

__version__ = "0.1.0"
