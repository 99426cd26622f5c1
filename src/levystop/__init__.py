"""Optimal stopping of perpetual claims on spectrally negative jump diffusions.

Downward jumps, upward goals: because the state only jumps down, first
passage over a threshold happens by continuous crossing, and perpetual
stopping problems reduce to one positive root k1 of a characteristic
equation plus a one-dimensional maximization of payoff/psi. The package
solves the root with certified diffusion-only brackets, produces
thresholds and value functions, sandwiches them between continuous
comparison problems, reports jump-risk-adjusted discount/drift/growth
rates, and cross-checks everything against an exact-skeleton Monte
Carlo first-passage oracle.
"""
from .bounds import (
    SandwichReport,
    adjusted_discount,
    adjusted_drift,
    certainty_growth,
    certainty_time,
    sandwich,
)
from .errors import (
    BadJumpSupport,
    BadPayoff,
    BadSupport,
    BracketFailure,
    DivergentTransform,
    DomainError,
    InvalidModel,
    LevyStopError,
    NoFiniteThreshold,
    NonPositiveVolatility,
    NoPositiveRoot,
    SolverError,
    ZeroDiscountForThreshold,
)
from .mc import (
    GridSearchResult,
    MCEstimate,
    PathResult,
    default_horizon,
    estimate_laplace,
    first_passage_times,
    policy_value,
    simulate_to_threshold,
    threshold_grid_search,
)
from .model import (
    BetaJumps,
    CappedCall,
    ExponentialJumps,
    Family,
    GammaJumps,
    Model,
    Payoff,
    PointMassJumps,
    PowerCall,
    TabulatedJumps,
    TabulatedPayoff,
    break_even,
    model_from_config,
    model_to_config,
    payoff_eval,
    validate,
)
from .roots import RootResult, char_eq, continuous_root, psi, solve_k1
from .stopping import ThresholdSolution, solve_threshold, value_fn
from .transforms import laplace_transform, power_transform

__version__ = "0.1.0"
