"""Reference parameterizations: three tables and three figures.

All growth-premium cells are 100 (r/k1 - drift), the percentage points
an investor would pay in sure growth to be rid of the stopping problem's
risk. Rows sweep jump intensity, columns volatility.

  table1  arithmetic, mu = 0.04, r = 0.05, gamma = 1, Gamma(1, 1) marks
  table2  geometric, alpha = 0.03, r = 0.05, Beta(1.25, 5) marks (convex regime)
  table3  geometric, alpha = 0.05, r = 0.03, same marks (concave regime, r < alpha)

  figure1 multiplier k1/(k1-1) vs sigma with its two continuous envelopes
  figure2 payoff, value, and envelope values on a state grid (sigma = 0.1)
  figure3 thresholds vs sigma for PowerCall(1, 0.2, 1) under Beta(1.25, 2)
"""
from __future__ import annotations

from ._numpy import np
from .bounds import certainty_growth, sandwich
from .model import BetaJumps, Family, GammaJumps, Model, PowerCall
from .roots import solve_k1
from .stopping import solve_threshold

__all__ = ["SIGMAS", "LAMBDAS", "table", "figure1", "figure2", "figure3", "TARGETS"]

SIGMAS = (0.05, 0.10, 0.15, 0.20, 0.25)
LAMBDAS = (0.0, 0.1, 0.2)


def _table_model(name: str, sigma: float, lam: float) -> Model:
    if name == "table1":
        return Model(Family.ARITHMETIC, drift=0.04, volatility=sigma,
                     jump_intensity=lam, jump_dist=GammaJumps(1.0, 1.0),
                     discount=0.05, jump_scale=1.0)
    if name == "table2":
        return Model(Family.GEOMETRIC, drift=0.03, volatility=sigma,
                     jump_intensity=lam, jump_dist=BetaJumps(1.25, 5.0), discount=0.05)
    if name == "table3":
        return Model(Family.GEOMETRIC, drift=0.05, volatility=sigma,
                     jump_intensity=lam, jump_dist=BetaJumps(1.25, 5.0), discount=0.03)
    raise ValueError(f"unknown table {name!r}")


def table(name: str) -> np.ndarray:
    """Growth premium grid, shape (len(LAMBDAS), len(SIGMAS)), in percent."""
    out = np.empty((len(LAMBDAS), len(SIGMAS)))
    for i, lam in enumerate(LAMBDAS):
        for j, sigma in enumerate(SIGMAS):
            model = _table_model(name, sigma, lam)
            k1 = solve_k1(model).k1
            out[i, j] = 100.0 * (certainty_growth(model, k1) - model.drift)
    return out


def _figure_model(sigma: float, concave: bool = False) -> Model:
    if concave:
        return Model(Family.GEOMETRIC, drift=0.04, volatility=sigma,
                     jump_intensity=0.01, jump_dist=BetaJumps(1.25, 2.0), discount=0.02)
    return Model(Family.GEOMETRIC, drift=0.025, volatility=sigma,
                 jump_intensity=0.02, jump_dist=BetaJumps(1.25, 5.0), discount=0.05)


FIGURE_SIGMAS = np.round(np.arange(0.05, 0.501, 0.01), 10)


def figure1() -> dict[str, np.ndarray]:
    """Threshold multiplier P = k1/(k1 - 1) and its envelope multipliers vs sigma."""
    rows = {"sigma": [], "p": [], "p_hat_r_lambda": [], "p_hat_r": []}
    for sigma in FIGURE_SIGMAS:
        model = _figure_model(sigma)
        root = solve_k1(model)
        rows["sigma"].append(float(sigma))
        rows["p"].append(root.k1 / (root.k1 - 1.0))
        rows["p_hat_r_lambda"].append(root.bracket_high / (root.bracket_high - 1.0))
        rows["p_hat_r"].append(root.bracket_low / (root.bracket_low - 1.0))
    return {k: np.asarray(v) for k, v in rows.items()}


def figure2() -> dict[str, np.ndarray]:
    """Payoff, value, and the sandwich values on a state grid (sigma = 0.1)."""
    payoff = PowerCall(1.0, 1.0, 1.0)
    report = sandwich(_figure_model(0.1), payoff, grid=np.linspace(0.0, 3.0, 301))
    return {
        "x": report.grid,
        "g": payoff.eval(report.grid),
        "v": report.v,
        "v_r": report.v_high,
        "v_r_lambda": report.v_low,
    }


def figure3() -> dict[str, np.ndarray]:
    """Concave-regime thresholds vs sigma, jump problem and both envelopes."""
    payoff = PowerCall(1.0, 0.2, 1.0)
    rows = {"sigma": [], "x_star": [], "x_star_r_lambda": [], "x_star_r": []}
    for sigma in FIGURE_SIGMAS:
        model = _figure_model(sigma, concave=True)
        root = solve_k1(model)
        rows["sigma"].append(float(sigma))
        rows["x_star"].append(solve_threshold(model, payoff, root.k1).x_star)
        rows["x_star_r_lambda"].append(solve_threshold(model, payoff, root.bracket_high).x_star)
        rows["x_star_r"].append(solve_threshold(model, payoff, root.bracket_low).x_star)
    return {k: np.asarray(v) for k, v in rows.items()}


# caption values the reproduction is checked against, in percent
TARGETS = {
    "table1": np.array([
        [0.15, 0.55, 1.10, 1.74, 2.43],
        [3.94, 4.12, 4.40, 4.77, 5.21],
        [6.51, 6.63, 6.83, 7.11, 7.45],
    ]),
    "table2": np.array([
        [0.08, 0.27, 0.49, 0.70, 0.89],
        [0.25, 0.40, 0.58, 0.77, 0.94],
        [0.38, 0.50, 0.66, 0.83, 0.98],
    ]),
    "table3": np.array([
        [-0.05, -0.19, -0.39, -0.63, -0.86],
        [-0.19, -0.32, -0.50, -0.72, -0.93],
        [-0.32, -0.44, -0.60, -0.79, -0.98],
    ]),
}
