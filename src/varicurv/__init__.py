"""Curvature estimation for point clouds via kernel-regularized varifold
variations: curvature tensors, principal curvatures, Gaussian and mean
curvature, with analytic-shape oracles and a convergence harness."""

from . import io
from .convergence import (
    ConvergenceSchedule,
    ScheduleRow,
    aligned_kappa_errors,
    fit_loglog_slope,
    run_convergence,
)
from .errors import (
    AsymmetricInputError,
    CloudValidationError,
    CodimensionError,
    DegenerateNeighborhoodError,
    FileFormatError,
    InvalidDirectionMatrixError,
    InvalidInputError,
    InvalidProfileError,
    IsolatedPointError,
    QuadratureError,
    ScheduleError,
    VaricurvError,
    ZeroRadiusError,
)
from .estimator import (
    CurvatureReport,
    NeighborIndex,
    NeighborQuery,
    PointCurvature,
    TangentEstimate,
    curvature_report,
    curvature_tensor,
    estimate_masses,
    estimate_tangent_planes,
    mean_curvature_vector,
    orthogonal_curvature_tensor,
    orthogonal_sff,
    plane_frames,
    point_curvature,
    principal_curvatures,
    restrict_to_tangent,
    smoothed_direction_matrix,
    variation_tensor,
)
from .kernels import (
    KernelPair,
    KernelProfile,
    box_profile,
    bump_profile,
    kernel_constant,
    kernel_pair_by_name,
    natural_kernel_pair,
    paired_mass_profile,
    profile_by_name,
    tent_profile,
    unit_ball_volume,
)
from .shapes import (
    AnalyticShape,
    Circle,
    Cube,
    Cylinder,
    ExactCurvature,
    PlanePatch,
    ShapeSample,
    Sphere,
    Torus,
    shape_by_name,
)
from .tensors import (
    DirectionMatrix,
    solve_curvature_system,
    to_bilinear_form,
    to_gradient_form,
)
from .varifold import (
    JunctionSpec,
    PointCloudVarifold,
    junction_coefficients,
    junction_is_curvature_free,
    sample_junction,
    validate_cloud,
)

__version__ = "0.1.0"
