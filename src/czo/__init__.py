"""Numerical toolkit for singular integral operators whose kernels blow up
along a curve: curve geometry, curve-adapted distances,
branch-disjoint partitions, kernel audits, truncated-operator application,
branch-multiplier recovery, and the dyadic decomposition machinery behind
weak-type estimates."""

__version__ = "0.1.0"

from .curves import CURVE_NAMES, get_curve
from .errors import (ConsistencyError, CurveValidityError, CzoError,
                     RegistryError, RejectedInputError)
from .geometry import (Box, CurveBranch, DyadicCube, HyperCurve, Region, box,
                       region, whole_space)
from .kernels import KERNEL_NAMES, KernelSpec, get_kernel
from .metric import (check_equivalence, check_qtheta, enlarged_cube,
                     rho_values)
from .operator import (GridFunction, MultiplierField, apply_multiplier,
                       apply_truncated, estimate_T0, grid_function,
                       multiplier_bound_check, recover_multipliers)
from .partition import (BranchDisjointPartition, build_partition,
                        disjoint_preimage_test)
from .decomposition import (DecompositionResult, cz_decompose, lp_norm,
                            weak_l1_quasinorm, weak_type_experiment)
