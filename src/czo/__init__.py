"""Numerical toolkit for singular integral operators whose kernels blow up
along a curve: curve geometry, curve-adapted distances, branch-disjoint
partitions, kernel audits, truncated-operator application, branch-multiplier
recovery, and the dyadic decomposition machinery behind weak-type estimates.
Each submodule, with the names it lends the package, loads on first use."""

__version__ = "0.1.0"

_EXPORTS = {
    "curves": "CURVE_NAMES get_curve",
    "errors": "ConsistencyError CurveValidityError CzoError RegistryError "
              "RejectedInputError",
    "geometry": "Box CurveBranch DyadicCube HyperCurve Region box region "
                "whole_space",
    "kernels": "KERNEL_NAMES KernelSpec get_kernel",
    "metric": "check_equivalence check_qtheta enlarged_cube rho_values",
    "operator": "GridFunction MultiplierField apply_multiplier "
                "apply_truncated estimate_T0 grid_function "
                "multiplier_bound_check recover_multipliers",
    "partition": "BranchDisjointPartition build_partition "
                 "disjoint_preimage_test",
    "decomposition": "DecompositionResult cz_decompose lp_norm "
                     "weak_l1_quasinorm weak_type_experiment",
    "util": ""}
_HOME = {n: m for m, names in _EXPORTS.items() for n in names.split()}
__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    from importlib import import_module
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(__getattr__(_HOME[name]), name))


def __dir__():
    return sorted({*globals(), *__all__})
