"""Seeded inputs for the benchmark: model configs, MC cases and grid cases.

Everything here is a pure function of a numpy Generator, so one workload
seed always yields the same inputs. Configs use the package's JSON wire
format, so the analytic workload can hand them to ``levy-stop`` as files.

Parameter regions are chosen so every problem has a finite threshold:
geometric problems keep ``alpha + lambda * E[Z] < r``, which puts both
``k1`` and the lower sandwich exponent above 1 (so linear-growth and
power payoffs with ``b < 1`` are dominated by ``psi``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILY_LAWS = {
    "arithmetic": ("gamma", "exponential", "beta", "point_mass", "tabulated"),
    "geometric": ("beta", "point_mass", "tabulated"),
}
FAMILY_PAYOFFS = {
    "arithmetic": ("capped_call", "tabulated"),
    "geometric": ("capped_call", "power_call", "tabulated"),
}
# every valid family x jump law x payoff: 5 x 2 + 3 x 3 = 19 problems
COMBOS = tuple((fam, law, pay) for fam, laws in FAMILY_LAWS.items()
               for law in laws for pay in FAMILY_PAYOFFS[fam])

# the README example; set-up time is measured on it
README_CONFIG = {
    "family": "geometric",
    "drift": 0.025,
    "volatility": 0.1,
    "lambda": 0.02,
    "jump_dist": {"kind": "beta", "params": {"c": 1.25, "d": 5.0}},
    "r": 0.05,
    "payoff": {"kind": "power_call", "params": {"a": 1.0, "b": 1.0, "K": 1.0}},
}

# reference models of the acceptance suite (fig2: geometric Beta(1.25, 5);
# table1: arithmetic Gamma(1, 1) at sigma = 0.05, lambda = 0.1)
FIG2_CONFIG = {k: v for k, v in README_CONFIG.items() if k != "payoff"}
TABLE1_CONFIG = {
    "family": "arithmetic", "drift": 0.04, "volatility": 0.05, "lambda": 0.1,
    "jump_scale": 1.0, "jump_dist": {"kind": "gamma", "params": {"shape": 1.0, "rate": 1.0}},
    "r": 0.05,
}


def closed_form(fam: str, law: str, pay: str) -> bool:
    """True when k1 and x* need neither Beta quadrature nor the tabulated scan."""
    return not (fam == "arithmetic" and law == "beta") and pay != "tabulated"


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def jump_law(rng: np.random.Generator, fam: str, law: str) -> dict:
    if law == "gamma":
        params = {"shape": _u(rng, 0.6, 2.0), "rate": _u(rng, 0.6, 2.0)}
    elif law == "exponential":
        params = {"rate": _u(rng, 0.6, 3.0)}
    elif law == "beta" and fam == "arithmetic":
        # near the reference Beta(1.25, 5): the quadrature's cost varies
        # much less, which keeps the analytic tail steady across seeds
        params = {"c": _u(rng, 1.0, 1.5), "d": _u(rng, 4.0, 6.0)}
    elif law == "beta":
        params = {"c": _u(rng, 0.8, 3.0), "d": _u(rng, 1.5, 5.0)}
    elif law == "point_mass":
        params = {"z": _u(rng, 0.2, 1.5) if fam == "arithmetic" else _u(rng, 0.05, 0.5)}
    else:
        a = _u(rng, 0.0, 1.0) if fam == "arithmetic" else _u(rng, 0.0, 0.3)
        b = _u(rng, 0.1, 1.0) if fam == "arithmetic" else _u(rng, 0.05, 0.4)
        params = {"nodes": [a, a + b], "weights": [0.4, 0.6]}
    return {"kind": law, "params": params}


def _mean_unit_mark(dist: dict) -> float:
    """E[Z] of a geometric-family law (beta, point mass or tabulated)."""
    p = dist["params"]
    if dist["kind"] == "beta":
        return p["c"] / (p["c"] + p["d"])
    if dist["kind"] == "point_mass":
        return p["z"]
    return float(np.dot(p["nodes"], p["weights"]))


def payoff(rng: np.random.Generator, fam: str, kind: str) -> dict:
    if kind == "capped_call":
        strike = _u(rng, 0.5, 1.5)
        cap = strike + (_u(rng, 0.5, 3.0) if fam == "arithmetic" else _u(rng, 0.5, 2.0))
        params = {"K": cap, "I": strike}
    elif kind == "power_call":
        params = {"a": _u(rng, 0.5, 2.0), "b": _u(rng, 0.2, 0.9), "K": _u(rng, 0.5, 2.0)}
    else:
        x = _u(rng, -1.0, 0.5) if fam == "arithmetic" else _u(rng, 0.3, 0.8)
        v = -_u(rng, 0.2, 0.5)
        bps, vals = [], []
        for _ in range(6):
            bps.append(x)
            vals.append(v)
            x += _u(rng, 0.3, 0.8)
            v += _u(rng, 0.15, 0.8)
        params = {"breakpoints": bps, "values": vals}
    return {"kind": kind, "params": params}


def model_config(rng: np.random.Generator, fam: str, law: str) -> dict:
    dist = jump_law(rng, fam, law)
    if fam == "arithmetic":
        return {"family": fam, "drift": _u(rng, 0.0, 0.06), "volatility": _u(rng, 0.08, 0.3),
                "lambda": _u(rng, 0.05, 0.3), "jump_scale": _u(rng, 0.5, 1.5),
                "jump_dist": dist, "r": _u(rng, 0.03, 0.08)}
    r = _u(rng, 0.04, 0.1)
    alpha = _u(rng, 0.1, 0.5) * r
    lam = min(0.5, _u(rng, 0.2, 0.6) * (r - alpha) / _mean_unit_mark(dist))
    return {"family": fam, "drift": alpha, "volatility": _u(rng, 0.08, 0.3),
            "lambda": lam, "jump_dist": dist, "r": r}


def problem(rng: np.random.Generator, fam: str, law: str, pay: str) -> dict:
    cfg = model_config(rng, fam, law)
    cfg["payoff"] = payoff(rng, fam, pay)
    return cfg


# ---------------------------------------------------------------------------
# Monte Carlo cases
# ---------------------------------------------------------------------------

def _with_law(base: dict, kind: str, **params) -> dict:
    return dict(base, jump_dist={"kind": kind, "params": params})


_ARITH = dict(TABLE1_CONFIG, volatility=0.1)
# one fixed model per family and jump law: table1 and fig2 themselves for
# arithmetic Gamma and geometric Beta, the others varying only the law
REFERENCE_MODELS = {
    "arithmetic-gamma": TABLE1_CONFIG,
    "arithmetic-exponential": _with_law(_ARITH, "exponential", rate=1.0),
    "arithmetic-beta": _with_law(_ARITH, "beta", c=1.25, d=5.0),
    "arithmetic-point_mass": _with_law(_ARITH, "point_mass", z=0.5),
    "arithmetic-tabulated": _with_law(_ARITH, "tabulated", nodes=[0.2, 0.8], weights=[0.4, 0.6]),
    "geometric-beta": FIG2_CONFIG,
    "geometric-point_mass": _with_law(FIG2_CONFIG, "point_mass", z=0.2),
    "geometric-tabulated": _with_law(FIG2_CONFIG, "tabulated", nodes=[0.1, 0.3], weights=[0.5, 0.5]),
}
# start and barrier per family: criterion 09's top level (table1) and
# criterion 07 (fig2); the payoff prices the policy_value cases
REFERENCE_XY = {"arithmetic": (0.5, 2.0), "geometric": (1.0, 2.39)}
REFERENCE_PAYOFF = {
    "arithmetic": {"kind": "capped_call", "params": {"K": 2.0, "I": 1.0}},
    "geometric": {"kind": "power_call", "params": {"a": 1.0, "b": 1.0, "K": 1.0}},
}


@dataclass(frozen=True)
class MCCase:
    """One estimate from x to the barrier y; policy_value when policy is True."""

    name: str
    config: dict          # model config with its payoff
    x: float
    y: float
    policy: bool


def mc_single_cases(rng: np.random.Generator) -> list[MCCase]:
    """Every family and jump law. fig2 and table1 run exactly as criteria 07
    and 09 set them; the others get +-3% on volatility and start, so the
    cost of a cycle barely depends on the seed."""
    cases = []
    for i, (name, base) in enumerate(REFERENCE_MODELS.items()):
        fam = base["family"]
        cfg = dict(base, payoff=REFERENCE_PAYOFF[fam])
        x, y = REFERENCE_XY[fam]
        if name not in ("arithmetic-gamma", "geometric-beta"):
            cfg["volatility"] *= _u(rng, 0.97, 1.03)
            x *= _u(rng, 0.97, 1.03)
        cases.append(MCCase(name, cfg, x, y, policy=i % 2 == 0))
    return cases


@dataclass(frozen=True)
class GridCase:
    """17 barriers with spacing h around x*, which sits a fraction delta past level 4."""

    name: str
    config: dict
    h: float
    delta: float


GRID_LEVELS = 17
GRID_BELOW = 4  # levels below x*; keeps every geometric level well above 0


def grid_cases(rng: np.random.Generator) -> list[GridCase]:
    """Shared-path threshold searches in the shape of acceptance criterion 08.

    The spacing h is wide enough that the value gap to any level more than
    one step from x* is several paired standard errors at the path count
    used (3.6 to 13 measured, the geometric case tightest), and delta keeps
    x* at least h/4 from the nearest level.
    The seed moves delta, the volatility (+-3%) and the paths.
    """
    table1 = dict(TABLE1_CONFIG, volatility=_u(rng, 0.194, 0.206),
                  payoff={"kind": "capped_call", "params": {"K": 6.0, "I": 1.0}})
    expo = {"family": "arithmetic", "drift": 0.03, "volatility": _u(rng, 0.097, 0.103),
            "lambda": 0.1, "jump_scale": 1.0,
            "jump_dist": {"kind": "exponential", "params": {"rate": 2.0}},
            "r": 0.05, "payoff": {"kind": "capped_call", "params": {"K": 8.0, "I": 1.0}}}
    geo = {"family": "geometric", "drift": 0.01, "volatility": _u(rng, 0.097, 0.103),
           "lambda": 0.05, "jump_dist": {"kind": "beta", "params": {"c": 1.25, "d": 5.0}},
           "r": 0.08, "payoff": {"kind": "power_call", "params": {"a": 1.0, "b": 0.5, "K": 1.0}}}
    return [
        GridCase("arithmetic-gamma", table1, 0.5, _u(rng, 0.25, 0.75)),
        GridCase("arithmetic-exponential", expo, 0.3, _u(rng, 0.25, 0.75)),
        GridCase("geometric-beta", geo, 0.2, _u(rng, 0.25, 0.75)),
    ]


def grid_levels(case: GridCase, x_star: float) -> np.ndarray:
    return x_star + case.h * (np.arange(GRID_LEVELS) - GRID_BELOW - case.delta)


def grid_start(case: GridCase, levels: np.ndarray) -> float:
    """Start below every level, as criterion 08 does."""
    if case.config["family"] == "geometric":
        return 0.9 * float(levels[0])
    return float(levels[0]) - 0.5
