"""Monte Carlo first-passage oracle, independent of the analytic route.

The scheme is exact and event driven, jump to jump (Kou & Wang 2003;
Metwally & Atiya 2002). Jump epochs are Poisson(lambda) and sampled
exactly. Between them the engine-space path (the state itself, or its
log for the geometric family) is a Brownian motion with drift c and
volatility sigma, so its passage time over a level at distance d is
inverse Gaussian, IG(d/|c|, d^2/sigma^2), reached only with probability
exp(2cd/sigma^2) when c < 0, and Levy, d^2/(sigma^2 Z^2), when c = 0.
One Michael-Schucany-Haas draw (1976) covers all three (see _passage).

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
driven by its own SFC64 stream keyed (seed, chunk index) and writing its
own columns of one result, allocated before any path runs. Replays are
bit-identical for a given seed regardless of how chunks might be
scheduled. Each pass draws, in an order, sizes and arguments that
performance changes keep: one normal then one uniform per live path;
gap-end draws for the misses; then their jump marks and exponential
gaps. A pass computes in place, in arrays it already owns, with the
floating-point operations of the formulas in their order (at most the
operands of + and * swapped), so every result is the same to the bit as
the formulas written out.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, log, sqrt

from ._numpy import np
from .errors import DomainError, InvalidModel
from .model import Family, Model, Payoff, _as_float

__all__ = [
    "MCEstimate",
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
class GridSearchResult:
    thresholds: tuple[float, ...]
    estimates: tuple[MCEstimate, ...]
    best_y: float
    y_fit: float | None  # the fitted vertex best_y is nearest to; None on the raw argmax


def default_horizon(model: Model) -> float:
    """T with e^{-rT} = 1e-4. r = 0, or an r so small that T overflows, has
    no finite default: pass one explicitly."""
    if model.discount <= 0:
        raise InvalidModel("r = 0 needs an explicit simulation horizon")
    horizon = log(1.0 / TERMINAL_DISCOUNT) / model.discount
    if not isfinite(horizon):  # r below about 5e-308: paths that never hit would run forever
        raise InvalidModel(f"r = {model.discount} gives no finite default horizon; "
                           "pass --horizon")
    return horizon


def _horizon(model: Model, horizon: float | None) -> float:
    """The default horizon when none is given; otherwise it must be finite and positive."""
    if horizon is None:
        return default_horizon(model)
    if not (isfinite(horizon) and horizon > 0):
        raise InvalidModel(f"simulation horizon must be finite and positive, got {horizon}")
    return horizon


def _floats(x0, levels) -> tuple[float, np.ndarray]:
    """The start as a float, an int beyond the float range read as inf, and
    the barriers as a 1-d float array; _engine_setup rejects what is not finite."""
    try:
        return _as_float(x0), np.atleast_1d(np.asarray(levels, dtype=float))
    except OverflowError:  # a barrier int beyond the float range
        raise InvalidModel("start and barriers must be finite") from None


def _engine_setup(model: Model, x0: float, levels: np.ndarray):
    """Map state and barriers into engine space (identity or log)."""
    if not (isfinite(x0) and np.all(np.isfinite(levels))):
        raise InvalidModel("start and barriers must be finite")
    if model.family is Family.GEOMETRIC:
        if x0 <= 0 or np.any(levels <= 0):
            raise DomainError("geometric states and barriers must be positive")
        start = log(x0)
        # a barrier at or below the start is passed at time 0, however log rounds
        elevels = np.where(levels <= x0, -np.inf, np.log(levels))
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
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=[seed, index])))


def _passage(gen: np.random.Generator, d: np.ndarray, c: float, s2: float) -> np.ndarray:
    """Passage time of c t + sigma W_t over d > 0; inf where it never gets there.

    Michael, Schucany & Haas (1976, Am. Statistician 30:88-90). With
    a = |c| and nu = s2 Z^2, the roots of (a t - d)^2 = nu t are
    t_lo = 2d^2/(2ad + nu + sqrt(nu (4ad + nu))) and t_hi = d^2/(a^2 t_lo);
    IG(d/a, d^2/s2) is t_lo with probability p = d/(d + a t_lo), else t_hi.
    When c < 0 the level is reached with probability rho = exp(2cd/s2),
    folded into the same uniform U: t_lo if U < rho p, t_hi if U < rho,
    else inf. Every term is positive, so nothing cancels as c -> 0, and
    c = 0 gives p = 1 and t_lo = d^2/nu, the Levy law.

    Every step writes into an array this call already owns; d is only read.
    """
    a2d = d * (2.0 * abs(c))  # 2ad
    nu = gen.standard_normal(d.size)
    np.square(nu, out=nu)
    nu *= s2
    u = gen.random(d.size)
    # c = 0 makes t_hi 0/0 or x/0, never chosen; Z = 0 there too makes t_lo = inf
    with np.errstate(divide="ignore", invalid="ignore"):
        den = a2d * 2.0
        den += nu
        den *= nu
        np.sqrt(den, out=den)
        nu += a2d
        den += nu  # 2ad + nu + sqrt(nu (4ad + nu)); nu is free from here on
        tau = np.multiply(d, 2.0, out=nu)
        tau *= d
        tau /= den  # t_lo
        # U < rho p with p = den/(den + 2ad), kept free of division; <= takes
        # t_lo when den = 0, where t_lo = inf is the Levy time for Z = 0
        bound = den
        if c < 0:
            rho = np.negative(a2d)
            rho /= s2
            np.exp(rho, out=rho)
            never = u >= rho
            rho *= den
            bound = rho
        a2d += den
        u *= a2d
        high = np.less_equal(u, bound)
        np.logical_not(high, out=high)  # not <=, so a NaN takes t_hi
        np.divide(den, 2.0 * c * c, out=tau, where=high)  # t_hi
    if c < 0:
        tau[never] = np.inf
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

    d and h are scratch: the result is built in their buffers and fresh draws.
    """
    shrink = np.divide(h, tau)
    np.subtract(1.0, shrink, out=shrink)
    if c < 0:
        never = np.isinf(tau).nonzero()[0]
        dn, hn = d[never], h[never]
    r = np.multiply(d, shrink, out=d)
    if c < 0:
        kappa = dn * -c
        kappa /= sigma * sigma
        cos = kappa * -2.0
        np.expm1(cos, out=cos)
        cos *= gen.random(never.size)
        np.log1p(cos, out=cos)
        cos /= kappa
        cos += 1.0
        # r = sqrt(dn^2 + (c hn)^2 - 2 c dn hn cos), kappa's buffer reused
        cross = np.multiply(dn, 2.0 * c, out=kappa)
        cross *= hn
        cross *= cos
        hn *= c
        np.square(hn, out=hn)
        dn *= dn
        dn += hn
        dn -= cross
        r[never] = np.sqrt(dn, out=dn)
    v2 = np.multiply(h, sigma * sigma, out=h)
    v2 *= shrink
    w = gen.standard_normal(r.size)
    w *= np.sqrt(v2, out=shrink)
    w += r
    np.square(w, out=w)
    v2 *= 2.0
    e = gen.standard_exponential(r.size)
    e *= v2
    w += e
    return np.sqrt(w, out=w)


def _simulate_chunk(model: Model, gen: np.random.Generator, start: float, levels: np.ndarray,
                    drift: float, horizon: float, tau: np.ndarray, lo: int, n: int) -> None:
    """Write n paths into columns lo:lo + n of tau (level-major, inf where not reached)."""
    m, width = tau.shape
    sigma = model.volatility
    lam = model.jump_intensity
    cells = tau.reshape(-1)[lo:]  # a view: level j, row i is cell j * width + i
    gap = np.minimum(gen.exponential(1.0 / lam, n), horizon) if lam > 0 else np.full(n, horizon)

    # state of the live paths only: row, position, clock, next barrier, gap end
    hit0 = int(np.searchsorted(levels, start, side="right"))
    tau[:hit0, lo:lo + n] = 0.0
    rows = np.arange(n if hit0 < m else 0)
    # float even for an int start: each pass writes the next distance into pos
    pos, t = np.full(rows.size, start, dtype=float), np.zeros(rows.size)
    k = np.full(rows.size, hit0)
    gap = gap[rows]

    with np.errstate(divide="ignore", over="ignore"):
        while rows.size:
            lev = levels[k]
            d = np.subtract(lev, pos, out=pos)  # lev is the position from here on
            np.maximum(d, 1e-12, out=d)  # rounding may leave a path on its barrier
            dt = _passage(gen, d, drift, sigma * sigma)
            h = gap - t
            hit = dt < h
            t += dt
            got = hit.nonzero()[0]
            cells[k[got] * width + rows[got]] = t[got]
            k += hit
            miss = np.logical_not(hit, out=hit).nonzero()[0]
            gap_miss = gap[miss]
            t[miss] = gap_miss

            pos = lev
            d, h, dt = d[miss], h[miss], dt[miss]  # the full-length arrays are freed here
            pos[miss] -= _gap_end(gen, d, h, dt, drift, sigma)
            if lam > 0:
                miss = miss[gap_miss < horizon]
                pos[miss] += _jump_shift(model, gen, miss.size)
                wait = gen.exponential(1.0 / lam, miss.size)
                wait += t[miss]
                gap[miss] = np.minimum(wait, horizon, out=wait)
            live = np.less(k, m, out=hit)
            live &= t < horizon
            if not live.all():  # compact only when some path finished
                keep = live.nonzero()[0]
                rows, pos, t, k, gap = rows[keep], pos[keep], t[keep], k[keep], gap[keep]


def first_passage_times(model: Model, x0: float, levels, n: int, seed: int,
                        horizon: float | None = None) -> np.ndarray:
    """First-passage times over each ascending barrier; inf where not reached.

    One shared path set serves every barrier (common random numbers), and
    tau is nondecreasing along each row by construction. The (n, m) result
    is a transposed view of a level-major array.
    """
    x0, levels = _floats(x0, levels)
    if np.any(np.diff(levels) <= 0):
        raise InvalidModel("barriers must be strictly increasing")
    if n <= 1:
        raise InvalidModel("need at least 2 paths")
    if seed < 0:  # SeedSequence takes nonnegative entropy only
        raise InvalidModel(f"seed must be nonnegative, got {seed}")
    horizon = _horizon(model, horizon)
    start, elevels, drift = _engine_setup(model, x0, levels)
    # the whole result first, so that an n beyond memory fails before any path runs
    try:
        tau = np.full((len(levels), n), np.inf)
    except ValueError as exc:  # more cells than an array can hold
        raise InvalidModel(f"{n} paths are too many: {exc}") from None
    for index, lo in enumerate(range(0, n, CHUNK)):
        _simulate_chunk(model, _chunk_stream(seed, index), start, elevels, drift, horizon,
                        tau, lo, min(CHUNK, n - lo))
    return tau.T


def simulate_to_threshold(model: Model, x0: float, y: float, horizon: float,
                          rng: np.random.Generator) -> float:
    """One path's passage time over y on a caller-supplied stream; inf when
    the horizon comes first. A hit lands on y exactly: jumps only go down."""
    horizon = _horizon(model, horizon)
    start, elevels, drift = _engine_setup(model, *_floats(x0, y))
    tau = np.full((1, 1), np.inf)
    _simulate_chunk(model, rng, start, elevels, drift, horizon, tau, 0, 1)
    return float(tau[0, 0])


def _stop_at(model: Model, x: float, levels, gvals, n: int, seed: int,
             horizon: float | None) -> tuple[list[MCEstimate], np.ndarray]:
    """g_j E[e^{-r tau_j}], stopping at the first passage over each ascending
    barrier, from one shared path set, and the level-major discount factors
    e^{-r tau} (0 where not reached). A barrier at or below x is passed at
    tau = 0, so its estimate is g_j exactly, with zero standard error."""
    tau = first_passage_times(model, x, levels, n, seed, horizon).T  # contiguous level rows
    horizon = _horizon(model, horizon)
    censored = [float(np.isinf(row).mean()) for row in tau]
    if model.discount > 0:  # in place: e^{-r inf} = 0 needs no mask
        tau *= -model.discount
        disc = np.exp(tau, out=tau)
    else:  # e^{-0 tau} = 1 where reached, 0 at tau = inf
        disc = np.isfinite(tau).astype(float)
    tail = exp(-model.discount * horizon)
    estimates = [MCEstimate(mean=g * float(row.mean()),
                            stderr=abs(g) * float(row.std(ddof=1) / sqrt(n)),
                            n_paths=n, horizon=horizon,
                            truncation_bound=abs(g) * tail * frac, seed=seed)
                 for g, row, frac in zip(gvals, disc, censored)]
    return estimates, disc


def estimate_laplace(model: Model, x: float, y: float, n: int, seed: int,
                     horizon: float | None = None) -> MCEstimate:
    """E[e^{-r tau_y}] from x: psi(x)/psi(y) below y, 1 at or above it."""
    return _stop_at(model, x, [y], [1.0], n, seed, horizon)[0][0]


def policy_value(model: Model, payoff: Payoff, x: float, y: float, n: int, seed: int,
                 horizon: float | None = None) -> MCEstimate:
    """Value of the stop-at-y policy: E[e^{-r tau_y} g(X_tau)] = g(y) E[e^{-r tau_y}].

    The factorization holds path by path: jumps are downward, so the
    barrier is crossed continuously and X_tau = y on every hit. From a
    start at or above y the policy stops at once and is worth g(x).
    """
    x, y = _as_float(x), _as_float(y)  # g of an int beyond the float range would overflow
    return _stop_at(model, x, [y], [payoff.eval(max(x, y))], n, seed, horizon)[0][0]


def _fitted_argmax(thresholds: np.ndarray, means: np.ndarray, x: float,
                   paths) -> tuple[int, float | None]:
    """The best level's index, and the vertex of the quadratic it was read from.

    A least-squares quadratic through the raw argmax and 2 levels on each
    side averages the noise of neighbouring estimates, which near the
    optimum differ by about their paired standard error. The best level
    is the one of those five nearest the vertex. The raw argmax (ties to
    the largest level) stands, with no vertex, when it has fewer than 2
    levels on either side, when any of the five is at or below x (worth
    g(x) exactly: a flat piece, not a noisy sample of the curve above x),
    when the fitted curvature is not negative, or when the quadratic
    misses one of the five means by more than twice the largest paired
    standard error of a level's difference from the argmax: there the
    curve's skew over the window, not noise, sets the vertex, and it can
    be off by more than a level. paths(rows) gives the per-path values
    behind means[rows].
    """
    best = len(means) - 1 - int(np.argmax(means[::-1]))
    if not (2 <= best < len(means) - 2 and thresholds[best - 2] > x):
        return best, None
    rows = slice(best - 2, best + 3)
    u, v = thresholds[rows] - thresholds[best], means[rows]
    # least squares on 1, u and u^2 made orthogonal (Gram-Schmidt), in sums:
    # numpy's lstsq would cost a LAPACK workspace of about 1 MB per process
    e1 = u - u.mean()
    e2 = u * u - (u * u).mean()
    tilt = (e2 * e1).sum() / (e1 * e1).sum()
    e2 -= tilt * e1
    lin, curv = (v * e1).sum() / (e1 * e1).sum(), (v * e2).sum() / (e2 * e2).sum()
    if not curv < 0:
        return best, None
    vals = paths(rows)
    paired_se = float((vals - vals[2]).std(axis=1, ddof=1).max()) / sqrt(vals.shape[1])
    if np.abs(v - v.mean() - lin * e1 - curv * e2).max() > 2.0 * paired_se:
        return best, None
    slope = lin - curv * tilt  # the fit's u coefficient
    y_fit = float(thresholds[best] - slope / (2.0 * curv))
    return best - 2 + int(np.argmin(np.abs(thresholds[rows] - y_fit))), y_fit


def threshold_grid_search(model: Model, payoff: Payoff, x: float, thresholds, n: int,
                          seed: int, horizon: float | None = None) -> GridSearchResult:
    """Estimate the stop-at-y value on a barrier grid with shared paths.

    Shared paths make neighboring estimates strongly positively
    correlated, so the argmax is far more stable than independent runs
    at the same n, and best_y is read from a quadratic fitted around it
    (see _fitted_argmax). A level at or below x is worth g(x), as in
    policy_value.
    """
    x, thresholds = _floats(x, thresholds)
    gvals = payoff.eval(np.maximum(thresholds, x))
    estimates, disc = _stop_at(model, x, thresholds, gvals.tolist(), n, seed, horizon)
    best, y_fit = _fitted_argmax(thresholds, np.array([e.mean for e in estimates]), x,
                                 lambda rows: gvals[rows, None] * disc[rows])
    return GridSearchResult(thresholds=tuple(float(v) for v in thresholds),
                            estimates=tuple(estimates), best_y=float(thresholds[best]),
                            y_fit=y_fit)
