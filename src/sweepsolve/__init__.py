"""Solver and verification toolkit for sweeping processes driven by
prox-regular moving sets that are continuous only with respect to the
one-sided excess semidistance."""

from .errors import (
    AtSingularity,
    CertificationFailed,
    DidNotConverge,
    DimensionMismatch,
    EmptyIntersection,
    InapplicableBound,
    InfeasibleInitialPoint,
    ModulusUnavailable,
    NoFeasibleEps,
    NoPositiveTau,
    NotAMember,
    OutOfRange,
    SchemaError,
    SweepError,
    TubeViolation,
    UnknownShapeTag,
)
from .families import (
    ExcessEstimate,
    Modulus,
    MovingFamily,
    PiecewiseFamily,
    RadiusFamily,
    RigidFamily,
    TranslateFamily,
    build_schedule,
    compute_tau,
    excess,
    verify_inner_ball,
)
from .geometry import RefinementSchedule, TimeGrid, norm
from .harness import CheckResult, RunReport, run
from .paths import ConstantPath, LinearPath, PiecewisePath
from .scenarios import (
    Scenario,
    list_builtins,
    load_builtin,
    parse_scenario,
    serialize_scenario,
)
from .sets import (
    Ball,
    BallComplement,
    Box,
    HalfSpace,
    NormalResidualReport,
    Polytope,
    ProxSet,
    RigidImage,
    halfspace,
    normal_residual,
    polytope,
    rotation_matrix_2d,
    sample_points,
)
from .solver import (
    DiscreteTrajectory,
    StepCertificates,
    affine_interpolant,
    certify_steps,
    solve,
    write_trajectory_csv,
)
from .variation import (
    ConvergenceReport,
    ball_variation_bound,
    choose_cone_params,
    cone_variation_bound,
    converge_study,
    variation,
)

__version__ = "0.1.0"
