"""Monte Carlo first-passage oracle, independent of the analytic route.

The scheme is exact and event driven, jump to jump (Kou & Wang 2003;
Metwally & Atiya 2002). Jump epochs are Poisson(lambda) and sampled
exactly. Between them the engine-space path (the state itself, or its
log for the geometric family) is a Brownian motion with drift c and
volatility sigma, so its passage time over a level at distance d is
inverse Gaussian: IG(d/c, d^2/sigma^2) when c > 0. When c < 0 the law
is defective, the level is reached with probability exp(2cd/sigma^2)
and then at an IG(d/|c|, d^2/sigma^2) time; when c = 0 the time is
Levy, d^2/(sigma^2 Z^2).

Each pass draws, for every live path, the passage time to its next
barrier. A time inside the gap to the next jump (or the horizon) is the
hit time, exactly. Downward jumps cannot cross a barrier, which is the
spectral-negativity fact the whole analytic route rests on: crossings
are continuous, the path restarts on the barrier, X_tau = y and
g(X_tau) = g(y) exactly, and the next barrier is tried in the same gap.
Otherwise the gap-end position is drawn from its law given that passage
time (see _gap_end), a fixed handful of draws with no rejection loop,
and the jump is applied. There is no time step, so the recorded passage
times carry no discretization error.

Determinism: paths are simulated in fixed chunks of 65536, each chunk
driven by its own Philox stream keyed (seed, chunk index), and chunk
results are aggregated in index order. Replays are bit-identical for a
given seed regardless of how chunks might be scheduled.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, log, sqrt

import numpy as np

from .errors import DomainError, InvalidModel
from .model import Family, Model, Payoff

__all__ = [
    "MCEstimate",
    "PathResult",
    "GridSearchResult",
    "default_horizon",
    "simulate_to_threshold",
    "first_passage_times",
    "estimate_laplace",
    "policy_value",
    "threshold_grid_search",
]

CHUNK = 1 << 16
TERMINAL_DISCOUNT = 1e-4  # default horizon T solves e^{-rT} = this


@dataclass(frozen=True)
class MCEstimate:
    """Discounted first-passage estimate with its statistical contract."""

    mean: float
    stderr: float
    n_paths: int
    horizon: float
    truncation_bound: float
    seed: int


@dataclass(frozen=True)
class PathResult:
    """One simulated path: did it reach y, when, and where it ended."""

    hit: bool
    tau: float
    x_at_tau: float


@dataclass(frozen=True)
class GridSearchResult:
    thresholds: tuple[float, ...]
    estimates: tuple[MCEstimate, ...]
    best_y: float


def default_horizon(model: Model) -> float:
    """T with e^{-rT} = 1e-4; r = 0 has no finite default, pass one explicitly."""
    if model.discount <= 0:
        raise InvalidModel("r = 0 needs an explicit simulation horizon")
    return log(1.0 / TERMINAL_DISCOUNT) / model.discount


def _horizon(model: Model, horizon: float | None) -> float:
    """The default horizon when none is given; otherwise it must be finite and positive."""
    if horizon is None:
        return default_horizon(model)
    if not (isfinite(horizon) and horizon > 0):
        raise InvalidModel(f"simulation horizon must be finite and positive, got {horizon}")
    return horizon


def _engine_setup(model: Model, x0: float, levels: np.ndarray):
    """Map state and barriers into engine space (identity or log)."""
    if not (isfinite(x0) and np.all(np.isfinite(levels))):
        raise InvalidModel("start and barriers must be finite")
    if model.family is Family.GEOMETRIC:
        if x0 <= 0 or np.any(levels <= 0):
            raise DomainError("geometric states and barriers must be positive")
        start = log(x0)
        elevels = np.log(levels)
        drift = model.drift - 0.5 * model.volatility ** 2 \
            + model.jump_intensity * model.mean_jump
    else:
        start = x0
        elevels = np.asarray(levels, dtype=float)
        drift = model.compensated_drift
    return start, elevels, drift


def _jump_shift(model: Model, gen: np.random.Generator, size: int) -> np.ndarray:
    z = model.jump_dist.sample(gen, size)
    if model.family is Family.GEOMETRIC:
        return np.log1p(-z)
    return -model.jump_scale * z


def _chunk_stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=[seed, index])))


def _passage(gen: np.random.Generator, d: np.ndarray, c: float, s2: float) -> np.ndarray:
    """Passage time of c t + sigma W_t over d > 0; inf where it never gets there.

    IG(d/|c|, d^2/s2), reached only with probability exp(2cd/s2) when
    c < 0. Where |c| d/s2 < 1e-9 the drift moves the law by about that
    much and the time is taken as Levy, d^2/(s2 Z^2): numpy's wald
    cancels to zero as |c| d/s2 nears rounding.
    """
    tau = np.full(d.size, np.inf)
    go = np.flatnonzero(gen.random(d.size) < np.exp(2.0 * c * d / s2)) if c < 0 else np.arange(d.size)
    levy = abs(c) * d[go] < 1e-9 * s2
    tau[go[levy]] = d[go[levy]] ** 2 / (s2 * gen.standard_normal(np.count_nonzero(levy)) ** 2)
    go = go[~levy]
    tau[go] = gen.wald(d[go] / abs(c), d[go] ** 2 / s2)
    return tau


def _gap_end(gen: np.random.Generator, d: np.ndarray, h: np.ndarray, tau: np.ndarray,
             c: float, sigma: float) -> np.ndarray:
    """Distance below the barrier after time h, given the passage time tau > h.

    Given tau, the distance is a BES(3) bridge from d to 0 whatever c is,
    so at h it is the norm of a 3-d Brownian bridge. Given tau = inf
    (c < 0, never reached) it is BES(3) with drift |c|: the norm of a 3-d
    Brownian motion with that drift, started on the sphere of radius d
    with density proportional to exp(|c| d cos(theta) / sigma^2) about
    the drift direction (Rogers & Pitman 1981).
    """
    shrink = 1.0 - h / tau
    r = d * shrink
    if c < 0:
        never = np.flatnonzero(np.isinf(tau))
        dn, hn = d[never], h[never]
        kappa = -c * dn / (sigma * sigma)
        cos = 1.0 + np.log1p(gen.random(never.size) * np.expm1(-2.0 * kappa)) / kappa
        r[never] = np.sqrt(dn * dn + (c * hn) ** 2 - 2.0 * c * dn * hn * cos)
    v2 = sigma * sigma * h * shrink
    return np.sqrt((r + np.sqrt(v2) * gen.standard_normal(d.size)) ** 2
                   + 2.0 * v2 * gen.standard_exponential(d.size))


def _simulate_chunk(model: Model, gen: np.random.Generator, n: int, start: float,
                    levels: np.ndarray, drift: float,
                    horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """tau matrix (n, len(levels)) plus terminal engine-space positions."""
    m = len(levels)
    sigma = model.volatility
    lam = model.jump_intensity
    tau = np.full((n, m), np.inf)
    end = np.full(n, start)
    gap = np.full(n, horizon)
    if lam > 0:
        gap = np.minimum(gen.exponential(1.0 / lam, n), horizon)

    # state of the live paths only: row, position, clock, next barrier, gap end
    hit0 = int(np.searchsorted(levels, start, side="right"))
    tau[:, :hit0] = 0.0
    rows = np.arange(n if hit0 < m else 0)
    pos, t, k, gap = end[rows], np.zeros(rows.size), np.full(rows.size, hit0), gap[rows]

    with np.errstate(divide="ignore", over="ignore"):
        while rows.size:
            lev = levels[k]
            d = np.maximum(lev - pos, 1e-12)  # rounding may leave a path on its barrier
            h = gap - t
            dt = _passage(gen, d, drift, sigma * sigma)
            hit = dt < h
            t = np.where(hit, t + dt, gap)
            tau[rows[hit], k[hit]] = t[hit]
            k = k + hit

            miss = np.flatnonzero(~hit)
            pos = lev
            pos[miss] -= _gap_end(gen, d[miss], h[miss], dt[miss], drift, sigma)
            if lam > 0:
                miss = miss[gap[miss] < horizon]
                pos[miss] += _jump_shift(model, gen, miss.size)
                gap[miss] = np.minimum(t[miss] + gen.exponential(1.0 / lam, miss.size), horizon)
            live = (k < m) & (t < horizon)
            end[rows[~live]] = pos[~live]
            rows, pos, t, k, gap = rows[live], pos[live], t[live], k[live], gap[live]

    return tau, end


def _require_paths(n: int) -> None:
    if n <= 1:
        raise InvalidModel("need at least 2 paths")


def first_passage_times(model: Model, x0: float, levels, n: int, seed: int,
                        horizon: float | None = None) -> np.ndarray:
    """First-passage times over each ascending barrier; inf where not reached.

    One shared path set serves every barrier (common random numbers), and
    tau is nondecreasing along each row by construction.
    """
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    if np.any(np.diff(levels) <= 0):
        raise InvalidModel("barriers must be strictly increasing")
    _require_paths(n)
    horizon = _horizon(model, horizon)
    start, elevels, drift = _engine_setup(model, x0, levels)
    chunks = []
    for index, lo in enumerate(range(0, n, CHUNK)):
        size = min(CHUNK, n - lo)
        gen = _chunk_stream(seed, index)
        tau, _ = _simulate_chunk(model, gen, size, start, elevels, drift, horizon)
        chunks.append(tau)
    return np.concatenate(chunks, axis=0)


def simulate_to_threshold(model: Model, x0: float, y: float, horizon: float,
                          rng: np.random.Generator) -> PathResult:
    """One path, caller-supplied stream. Crossing position is y exactly."""
    horizon = _horizon(model, horizon)
    start, elevels, drift = _engine_setup(model, x0, np.asarray([y], dtype=float))
    tau, end = _simulate_chunk(model, rng, 1, start, elevels, drift, horizon)
    hit = isfinite(tau[0, 0])
    if hit:
        return PathResult(True, float(tau[0, 0]), float(y))
    x_end = float(np.exp(end[0])) if model.family is Family.GEOMETRIC else float(end[0])
    return PathResult(False, float("inf"), x_end)


def _estimate(tau: np.ndarray, model: Model, horizon: float, seed: int,
              g: float = 1.0) -> MCEstimate:
    """g E[e^{-r tau}] from passage times, inf where the barrier was not reached."""
    miss = ~np.isfinite(tau)
    disc = np.where(miss, 0.0, np.exp(-model.discount * np.where(miss, 0.0, tau)))
    n = len(disc)
    return MCEstimate(mean=g * float(disc.mean()),
                      stderr=abs(g) * float(disc.std(ddof=1) / sqrt(n)),
                      n_paths=n, horizon=horizon,
                      truncation_bound=abs(g) * exp(-model.discount * horizon)
                      * float(miss.mean()),
                      seed=seed)


def estimate_laplace(model: Model, x: float, y: float, n: int, seed: int,
                     horizon: float | None = None) -> MCEstimate:
    """E[e^{-r tau_y}] from x; the analytic value is psi(x)/psi(y)."""
    _require_paths(n)
    horizon = _horizon(model, horizon)
    if x >= y:
        return MCEstimate(1.0, 0.0, n, horizon, 0.0, seed)
    tau = first_passage_times(model, x, [y], n, seed, horizon)[:, 0]
    return _estimate(tau, model, horizon, seed)


def policy_value(model: Model, payoff: Payoff, x: float, y: float, n: int, seed: int,
                 horizon: float | None = None) -> MCEstimate:
    """Value of the stop-at-y policy: E[e^{-r tau_y} g(X_tau)] = g(y) E[e^{-r tau_y}].

    The factorization holds path by path: jumps are downward, so the
    barrier is crossed continuously and X_tau = y on every hit.
    """
    _require_paths(n)
    horizon = _horizon(model, horizon)
    if x >= y:
        return MCEstimate(payoff.eval(x), 0.0, n, horizon, 0.0, seed)
    tau = first_passage_times(model, x, [y], n, seed, horizon)[:, 0]
    return _estimate(tau, model, horizon, seed, payoff.eval(y))


def threshold_grid_search(model: Model, payoff: Payoff, x: float, thresholds, n: int,
                          seed: int, horizon: float | None = None) -> GridSearchResult:
    """Estimate the stop-at-y value on a barrier grid with shared paths.

    Shared paths make neighboring estimates strongly positively
    correlated, so the argmax is far more stable than independent runs
    at the same n. Ties break toward the largest barrier.
    """
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    horizon = _horizon(model, horizon)
    tau = first_passage_times(model, x, thresholds, n, seed, horizon)
    gvals = np.atleast_1d(np.asarray(payoff.eval(thresholds), dtype=float))
    estimates = [MCEstimate(g, 0.0, n, horizon, 0.0, seed) if x >= y
                 else _estimate(tau[:, j], model, horizon, seed, g)
                 for j, (y, g) in enumerate(zip(thresholds, gvals.tolist()))]
    means = np.array([e.mean for e in estimates])
    best = len(means) - 1 - int(np.argmax(means[::-1]))
    return GridSearchResult(thresholds=tuple(float(v) for v in thresholds),
                            estimates=tuple(estimates), best_y=float(thresholds[best]))
