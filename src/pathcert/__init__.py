"""Smooth bounded-speed paths through prescribed data, with certification.

The package builds, from a sequence of points accumulating at the
origin with prescribed unit derivative directions, a C^inf path s with
s(t) -> 0 as t -> 0+ that interpolates the data while keeping ||s(t)||,
||s'(t)||, and their product under explicit bounds.  Verifier routines
certify the bounds numerically, and a probing harness uses such paths
to exhibit discontinuities of scalar fields at the origin.
"""

import importlib
import os

# pathcert computes on one thread.  Its matrix products are a few columns
# wide, so a BLAS worker pool only costs start-up time and spins beside the
# caller after each product; a count already set in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

# each public name and the module that defines it; a name is imported on
# first access (PEP 562), so a command loads only the modules it uses
_EXPORTS = {
    "errors": (
        "DomainError", "ExpressionError", "InputError", "PipelineError", "WitnessNotFoundError",
    ),
    "geometry": (
        "CONE_HALF_ANGLE", "DEFAULT_COVER_HALF_ANGLE", "ConeSpec", "SphereCover",
        "UnitDirection", "build_sphere_cover", "cone_contains", "cone_contains_many",
        "select_dominant_cone", "select_parity", "shell_index",
    ),
    "harness": (
        "BUILTIN_FIELDS", "ProbeReport", "ScalarField", "certify_discontinuity",
        "derive_witness", "field_from_expression", "get_builtin_field",
    ),
    "mollifier": (
        "SmoothPath", "bump_kernel", "build_smooth_path", "dense_grid", "eval_smooth",
        "eval_smooth_derivative", "eval_smooth_derivative_many", "eval_smooth_many",
        "sample_path",
    ),
    "pipeline": ("PathBuild", "build_path"),
    "skeleton": (
        "AnchorSequence", "PiecewiseAffinePath", "WitnessSequence", "build_anchor_sequence",
        "build_skeleton", "eval_affine", "eval_affine_derivative",
    ),
    "verifier": (
        "CheckReport", "coincidence_check", "envelope_check", "interpolation_check",
        "lemma1_bound_check", "lemma1_random_suite", "product_bound_scan", "run_checks",
        "smoothness_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

