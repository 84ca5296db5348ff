"""Curvature estimation for point clouds via kernel-regularized varifold
variations: curvature tensors, principal curvatures, Gaussian and mean
curvature, with analytic-shape oracles and a convergence harness.

The names below are the documented API (README, "Public API"); everything
else is imported from its submodule.
"""

from . import io
from .convergence import ConvergenceSchedule, ScheduleRow, run_convergence
from .errors import VaricurvError
from .estimator import (
    NeighborIndex,
    NeighborQuery,
    curvature_report,
    orthogonal_sff,
    point_curvature,
    variation_tensor,
)
from .kernels import bump_profile, natural_kernel_pair
from .shapes import Circle, Cube, Cylinder, PlanePatch, Sphere, Torus
from .tensors import to_bilinear_form
from .varifold import (
    JunctionSpec,
    junction_coefficients,
    junction_is_curvature_free,
    sample_junction,
    validate_cloud,
)

__version__ = "0.1.0"
