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

The bounds, mc and stopping exports are imported on first access, and
numpy on first array use, so `import levystop` loads none of them.
"""
import importlib

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
    model_from_config,
    model_to_config,
    payoff_eval,
    validate,
)
from .roots import RootResult, char_eq, continuous_root, psi, solve_k1

__version__ = "0.1.0"

# name -> the module that defines it (or is it), imported on first access
_LAZY = {name: module for module, names in {
    "bounds": ("SandwichReport", "adjusted_discount", "adjusted_drift", "certainty_growth",
               "certainty_time", "sandwich"),
    "mc": ("GridSearchResult", "MCEstimate", "default_horizon", "estimate_laplace",
           "first_passage_times", "policy_value", "threshold_grid_search"),
    "stopping": ("ThresholdSolution", "solve_threshold", "value_fn"),
}.items() for name in (module, *names)}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = globals()[name] = module if name == _LAZY[name] else getattr(module, name)
    return value
