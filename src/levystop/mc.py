"""Monte Carlo first-passage oracle, independent of the analytic route.

The scheme is exact and event driven, jump to jump (Kou & Wang 2003;
Metwally & Atiya 2002). Jump epochs are Poisson(lambda) and sampled
exactly. Between them the engine-space path (the state itself, or its
log for the geometric family) is a Brownian motion with drift c and
volatility sigma, so a gap of length s that starts d below a barrier
ends e = d - (c s + sigma sqrt(s) Z) below it, drawn when the gap
starts. Given both ends, the path is a Brownian bridge, and one uniform
decides whether it crosses the next barrier (see _crossing); a
crossing's time is one Michael-Schucany-Haas draw (1976, see _msh),
time-changed into the bridge (see _hit_times).

A crossing inside the gap is the hit time, exactly. Downward jumps
cannot cross a barrier, which is the spectral-negativity fact the whole
analytic route rests on: crossings are continuous, the path restarts on
the barrier, X_tau = y and g(X_tau) = g(y) exactly, and the next barrier
is tried on the rest of the same bridge. Otherwise the gap ends in a jump
(or at the horizon). There is no time step, so the recorded passage times
carry no discretization error.

A live path is five numbers: the result cell of its next barrier, where
its bridge starts (t) and ends (gap) in time, and its distances d and e
below that barrier then. A restart moves the cell one barrier up, and d
becomes the barriers' spacing and e grows by it; a jump of size W makes
d = e + W before the next gap draws e.

Determinism: paths are simulated in fixed chunks of 65536, each chunk
driven by its own SFC64 stream keyed (seed, chunk index) and writing its
own columns of one result, allocated before any path runs. Replays are
bit-identical for a given seed regardless of how chunks might be
scheduled. A chunk draws every path's first jump gap, then, unless the
start is at or above every barrier, one normal per path for the gap's
end. Each pass then draws, in an order, sizes and arguments that
performance changes keep: one uniform per live path; one normal then one
uniform per crossing; then, for the gaps that end in a jump, the jump
marks, the next exponential gaps and one normal each for their ends. The
next pass takes the jumpers in their order, then the restarts in theirs.
A pass with a crossing below the top barrier times its crossings at once,
for the restarts; any other pass's crossings end their paths, so the chunk
times them in one batch at its end, from the draws their pass made.
Every result is the same to the bit as the formulas written out in that
order (at most the operands of + and * swapped).

_crossing, _hit_times and _end_distance only read the t, d, e and s they
are given, so a pass builds its restarts from its crossings' own gathers.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, log, sqrt

from ._numpy import np
from .errors import InvalidModel
from .model import Model, Payoff, _as_float

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
MAX_JUMP_GAPS = 1e4  # bound on lambda T: at it, 100 paths that never hit take about 1 s


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
    """The default horizon when none is given; otherwise it must be finite and
    positive. Either way lambda T is at most MAX_JUMP_GAPS: a path that never
    hits walks through about lambda T jump gaps, one engine pass each."""
    if horizon is None:
        horizon = default_horizon(model)
    elif not (isfinite(horizon) and horizon > 0):
        raise InvalidModel(f"simulation horizon must be finite and positive, got {horizon}")
    if model.jump_intensity * horizon > MAX_JUMP_GAPS:
        raise InvalidModel(f"lambda * horizon = {model.jump_intensity * horizon:.6g} jump gaps "
                           f"per path is above {MAX_JUMP_GAPS:g}; pass a shorter --horizon")
    return horizon


def _engine_inputs(model: Model, x0, levels) -> tuple[float, np.ndarray, float, np.ndarray]:
    """The start as a float and the barriers as a 1-d float array, both
    finite (an int beyond the float range is not), and both in engine space u."""
    try:
        x0, levels = _as_float(x0), np.atleast_1d(np.asarray(levels, dtype=float))
    except OverflowError:  # a barrier int beyond the float range
        raise InvalidModel("start and barriers must be finite") from None
    if not (isfinite(x0) and np.all(np.isfinite(levels))):
        raise InvalidModel("start and barriers must be finite")
    # a barrier at or below the start is passed at time 0, however u rounds
    return x0, levels, model.u(x0), np.where(levels <= x0, -np.inf, model.u(levels))


def _chunk_stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=[seed, index])))


def _msh(d: np.ndarray, c: np.ndarray | float, s2: float, nu: np.ndarray,
         u: np.ndarray) -> np.ndarray:
    """Passage time of c t + sigma W_t over d > 0, for drifts c >= 0 (an
    array like d, or one float for all), from the draws nu (standard
    normals Z) and u (uniforms), which are both overwritten.

    Michael, Schucany & Haas (1976, Am. Statistician 30:88-90). With
    nu = s2 Z^2, the roots of (c t - d)^2 = nu t are
    t_lo = 2d^2/(2cd + nu + sqrt(nu (4cd + nu))) and t_hi = d^2/(c^2 t_lo);
    IG(d/c, d^2/s2) is t_lo with probability p = d/(d + c t_lo), else t_hi.
    Every term is positive, so nothing cancels as c -> 0, and c = 0 gives
    p = 1 and t_lo = d^2/nu, the Levy law.
    """
    c2 = np.multiply(c, 2.0)
    a2d = c2 * d  # 2cd
    np.square(nu, out=nu)
    nu *= s2
    # c = 0 makes t_hi 0/0 or x/0, never chosen, and a tiny c overflows it to inf;
    # Z = 0 with c = 0 makes t_lo = inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        den = a2d * 2.0
        den += nu
        den *= nu
        np.sqrt(den, out=den)
        nu += a2d
        den += nu  # 2cd + nu + sqrt(nu (4cd + nu)); nu is free from here on
        tau = np.multiply(d, 2.0, out=nu)
        tau *= d
        tau /= den  # t_lo
        # U < p with p = den/(den + 2cd), kept free of division; <= takes
        # t_lo when den = 0, where t_lo = inf is the Levy time for Z = 0
        a2d += den
        u *= a2d
        low = np.less_equal(u, den)  # t_lo; anything else, a NaN too, takes t_hi
        c2 *= c
        # t_hi everywhere, then a select: a masked divide costs several times both
        t_hi = np.divide(den, c2, out=den)
    return np.where(low, tau, t_hi)


def _crossing(gen: np.random.Generator, d: np.ndarray, e: np.ndarray, s: np.ndarray,
              s2: float) -> np.ndarray:
    """Which Brownian bridges cross a barrier, as a mask; d, e and s are only read.

    Over time s the bridge runs from distance d > 0 below the barrier to
    distance e below it. It crosses with probability exp(-2de/(s2 s))
    (Metwally & Atiya 2002), at least 1 when e <= 0. When no uniform is below
    e^-700 (gen.random's are 0 or at least 2^-53), exponents below -700 are
    raised to it: no coin changes, and exp stays off its slow tiny-result path.
    """
    u, a = gen.random(d.size), np.multiply(d, -2.0)
    a *= e
    a /= s2 * s
    if u.min() >= exp(-700.0):
        np.maximum(a, -700.0, out=a)
    return u < np.exp(a, out=a)


def _hit_times(s2: float, t: np.ndarray, d: np.ndarray, e: np.ndarray, s: np.ndarray,
               nu: np.ndarray, u: np.ndarray) -> np.ndarray:
    """When crossing bridges that start at t cross, from _msh's draws nu and u (both
    overwritten; t, d, e and s are only read). In the time nu = s r/(s - r), r after t, a
    bridge crosses when a Brownian motion with drift -e/s passes d, whose drift given that it
    does is |e|/s: r = s/(1 + s/nu)."""
    c = np.abs(e)
    c /= s
    nu = _msh(d, c, s2, nu, u)
    np.divide(s, nu, out=nu)
    nu += 1.0
    return np.add(np.divide(s, nu, out=nu), t, out=nu)


def _end_distance(gen: np.random.Generator, d: np.ndarray, s: np.ndarray, c: float,
                  sigma: float) -> np.ndarray:
    """How far below a barrier gaps of length s that start d below it end:
    d - (c s + sigma sqrt(s) Z); d and s are only read."""
    b = np.sqrt(s)
    b *= sigma
    b *= gen.standard_normal(s.size)
    a = np.multiply(s, c)
    a += b
    return np.subtract(d, a, out=a)


def _simulate_chunk(model: Model, gen: np.random.Generator, start: float, levels: np.ndarray,
                    horizon: float, tau: np.ndarray, lo: int, n: int) -> None:
    """Write n paths into columns lo:lo + n of tau (level-major, inf where not reached)."""
    m, width = tau.shape
    drift, sigma = model.engine_drift, model.volatility
    lam = model.jump_intensity
    gap = np.minimum(gen.exponential(1.0 / lam, n), horizon) if lam > 0 else np.full(n, horizon)
    hit0 = int(np.searchsorted(levels, start, side="right"))
    tau[:hit0, lo:lo + n] = 0.0
    if hit0 == m:
        return
    # barrier hit0 + j's height above the start (j = 0) or the barrier below it;
    # rounding may leave a path on its barrier
    rise = np.maximum(np.diff(levels[hit0:], prepend=start), 1e-12)
    # a view: cell j * width + i is barrier hit0 + j, path i
    cells, top = tau.reshape(-1)[hit0 * width + lo:], rise.size * width

    cell, t, d = np.arange(n), np.zeros(n), np.full(n, rise[0])  # see the module docstring
    e = _end_distance(gen, d, gap, drift, sigma)
    s2, last, late = sigma * sigma, top - width, []  # late: crossings timed at the end

    with np.errstate(divide="ignore", over="ignore"):
        while cell.size:
            s = gap - t
            hit = _crossing(gen, d, e, s, s2)
            got, restart = hit.nonzero()[0], ()
            if got.size:
                at = cell[got]
                crossed = (t[got], d[got], e[got], s[got], gen.standard_normal(got.size),
                           gen.random(got.size))
                if at.min() >= last:  # every crossing ends its path: nothing reads its time yet
                    late.append((at, *crossed))
                else:
                    dt = cells[at] = _hit_times(s2, *crossed)
                    at += width  # a hit below the top barrier restarts on it, in the same bridge
                    up = ((at < top) & (dt < horizon)).nonzero()[0]
                    at, dt, got, e_up = at[up], dt[up], got[up], crossed[2][up]  # crossed[2] is e[got]
                    step = rise[at // width]
                    e_up += step
                    restart = (at, dt, gap[got], step, e_up)
            # a miss that ends before the horizon jumps W further below its barrier there
            jump = np.logical_not(hit, out=hit)
            jump &= gap < horizon
            jump = jump.nonzero()[0]
            t_j, d_j = gap[jump], e[jump]
            g_j = e_j = t_j  # no jumper: all empty
            if jump.size:
                d_j += model.marks(model.jump_dist.sample(gen, jump.size))
                g_j = gen.exponential(1.0 / lam, jump.size)
                g_j += t_j
                np.minimum(g_j, horizon, out=g_j)
                e_j = _end_distance(gen, d_j, g_j - t_j, drift, sigma)
            cell, t, gap, d, e = state = cell[jump], t_j, g_j, d_j, e_j
            if restart:  # after the jumpers
                cell, t, gap, d, e = map(np.concatenate, zip(state, restart))
        if late:  # one batch, the same formulas element by element
            at, *crossed = map(np.concatenate, zip(*late))
            cells[at] = _hit_times(s2, *crossed)


def _request(model: Model, x0, levels, n: int, seed: int,
             horizon: float | None) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Check a first-passage request and run it: the start and barriers as
    floats, the level-major passage times (inf where not reached) and the
    horizon."""
    x0, levels, start, elevels = _engine_inputs(model, x0, levels)
    if np.any(np.diff(levels) <= 0):
        raise InvalidModel("barriers must be strictly increasing")
    if n <= 1:
        raise InvalidModel("need at least 2 paths")
    if seed < 0:  # SeedSequence takes nonnegative entropy only
        raise InvalidModel(f"seed must be nonnegative, got {seed}")
    horizon = _horizon(model, horizon)
    # the whole result first, so that an n beyond memory fails before any path runs
    try:
        tau = np.full((len(levels), n), np.inf)
    except ValueError as exc:  # more cells than an array can hold
        raise InvalidModel(f"{n} paths are too many: {exc}") from None
    for index, lo in enumerate(range(0, n, CHUNK)):
        _simulate_chunk(model, _chunk_stream(seed, index), start, elevels, horizon,
                        tau, lo, min(CHUNK, n - lo))
    return x0, levels, tau, horizon


def first_passage_times(model: Model, x0: float, levels, n: int, seed: int,
                        horizon: float | None = None) -> np.ndarray:
    """First-passage times over each ascending barrier; inf where not reached.

    One shared path set serves every barrier (common random numbers), and
    tau is nondecreasing along each row by construction. The (n, m) result
    is a transposed view of a level-major array.
    """
    return _request(model, x0, levels, n, seed, horizon)[2].T


def simulate_to_threshold(model: Model, x0: float, y: float, horizon: float,
                          rng: np.random.Generator) -> float:
    """One path's passage time over y on a caller-supplied stream; inf when
    the horizon comes first. A hit lands on y exactly: jumps only go down."""
    _, _, start, elevels = _engine_inputs(model, x0, y)
    tau = np.full((1, 1), np.inf)
    _simulate_chunk(model, rng, start, elevels, _horizon(model, horizon), tau, 0, 1)
    return float(tau[0, 0])


def _stop_at(model: Model, tau: np.ndarray, gvals, seed: int,
             horizon: float) -> tuple[list[MCEstimate], np.ndarray]:
    """g_j E[e^{-r tau_j}] from row j of the level-major passage times tau,
    and the discount factors e^{-r tau} (0 where not reached), written over
    tau. A barrier at or below the start is passed at tau = 0, so its
    estimate is g_j exactly, with zero standard error."""
    n = tau.shape[1]
    censored = np.isinf(tau).mean(axis=1).tolist()
    if model.discount > 0:  # in place: e^{-r inf} = 0 needs no mask
        tau *= -model.discount
        disc = np.exp(tau, out=tau)
    else:  # e^{-0 tau} = 1 where reached, 0 at tau = inf
        disc = np.isfinite(tau).astype(float)
    tail = exp(-model.discount * horizon)
    estimates = [MCEstimate(mean=g * mean, stderr=abs(g) * (sd / sqrt(n)), n_paths=n,
                            horizon=horizon, truncation_bound=abs(g) * tail * frac, seed=seed)
                 for g, mean, sd, frac in zip(gvals, disc.mean(axis=1).tolist(),
                                              disc.std(axis=1, ddof=1).tolist(), censored)]
    return estimates, disc


def estimate_laplace(model: Model, x: float, y: float, n: int, seed: int,
                     horizon: float | None = None) -> MCEstimate:
    """E[e^{-r tau_y}] from x: psi(x)/psi(y) below y, 1 at or above it."""
    _, _, tau, horizon = _request(model, x, y, n, seed, horizon)
    return _stop_at(model, tau, [1.0], seed, horizon)[0][0]


def policy_value(model: Model, payoff: Payoff, x: float, y: float, n: int, seed: int,
                 horizon: float | None = None) -> MCEstimate:
    """Value of the stop-at-y policy: E[e^{-r tau_y} g(X_tau)] = g(y) E[e^{-r tau_y}].

    The factorization holds path by path: jumps are downward, so the
    barrier is crossed continuously and X_tau = y on every hit. From a
    start at or above y the policy stops at once and is worth g(x).
    """
    x, (y,), tau, horizon = _request(model, x, y, n, seed, horizon)
    return _stop_at(model, tau, [payoff.eval(max(x, float(y)))], seed, horizon)[0][0]


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
    x, thresholds, tau, horizon = _request(model, x, thresholds, n, seed, horizon)
    gvals = payoff.eval(np.maximum(thresholds, x))
    estimates, disc = _stop_at(model, tau, gvals.tolist(), seed, horizon)
    best, y_fit = _fitted_argmax(thresholds, np.array([e.mean for e in estimates]), x,
                                 lambda rows: gvals[rows, None] * disc[rows])
    return GridSearchResult(thresholds=tuple(float(v) for v in thresholds),
                            estimates=tuple(estimates), best_y=float(thresholds[best]),
                            y_fit=y_fit)
