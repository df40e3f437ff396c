"""Smooth bounded-speed paths through prescribed data, with certification.

The package builds, from a sequence of points accumulating at the
origin with prescribed unit derivative directions, a C^inf path s with
s(t) -> 0 as t -> 0+ that interpolates the data while keeping ||s(t)||,
||s'(t)||, and their product under explicit bounds.  Verifier routines
certify the bounds numerically, and a probing harness uses such paths
to exhibit discontinuities of scalar fields at the origin.
"""

import os

# pathcert computes on one thread.  Its matrix products are a few columns
# wide, so a BLAS worker pool only costs start-up time and spins beside the
# caller after each product; a count already set in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .errors import (
    DomainError,
    ExpressionError,
    InputError,
    PipelineError,
    WitnessNotFoundError,
)
from .geometry import (
    CONE_HALF_ANGLE,
    DEFAULT_COVER_HALF_ANGLE,
    ConeSpec,
    SphereCover,
    UnitDirection,
    build_sphere_cover,
    cone_contains,
    cone_contains_many,
    select_dominant_cone,
    select_parity,
    shell_index,
)
from .harness import (
    BUILTIN_FIELDS,
    ProbeReport,
    ScalarField,
    certify_discontinuity,
    derive_witness,
    field_from_expression,
    get_builtin_field,
)
from .mollifier import (
    BumpKernel,
    SmoothPath,
    build_smooth_path,
    dense_grid,
    eval_smooth,
    eval_smooth_derivative,
    eval_smooth_derivative_many,
    eval_smooth_many,
    make_kernel,
    sample_path,
)
from .pipeline import PathBuild, build_path
from .skeleton import (
    AnchorSequence,
    PiecewiseAffinePath,
    WitnessSequence,
    build_anchor_sequence,
    build_skeleton,
    eval_affine,
    eval_affine_derivative,
)
from .verifier import (
    CheckReport,
    coincidence_check,
    envelope_check,
    interpolation_check,
    lemma1_bound_check,
    lemma1_random_suite,
    product_bound_scan,
    run_checks,
    smoothness_check,
)

__version__ = "0.1.0"
