"""Model and payoff types for spectrally negative jump diffusions.

Two parametric families share one interface. State X_t, jump marks
Z_i >= 0 iid with law m, jump epochs Poisson(lambda), W a Brownian
motion independent of the jumps:

  arithmetic   X_t = x + (mu + gamma*lambda*mbar) t + sigma W_t
                     - gamma * sum_{i<=N_t} Z_i
  geometric    X_t = x * exp((alpha - sigma^2/2 + lambda*mbar) t
                     + sigma W_t) * prod_{i<=N_t} (1 - Z_i)

with mbar = E[Z]. The compensated drift keeps E[X_t] growing at rate
mu (resp. alpha): downward jumps are paid for by a higher drift
between jumps. All jumps move the state down (spectrally negative),
which is what makes first passage upward continuous.

Payoffs g are nonnegative, nondecreasing, with a unique break-even
point x0 (g > 0 strictly above x0, g <= 0 at or below). Perpetual
claims pay g(X_tau) at a stopping time tau, discounted at rate r.

Each type carries its own maths. A jump law has support, unit_marks(),
mean(), sample(gen, size) and laplace(s) = E[e^{-sZ}]; laws with marks
inside [0, 1) also have power(k) = E[(1-Z)^k] and log_mean() =
E[ln(1-Z)]. A payoff has eval(x) (vectorized), deriv(x) (the right-hand
g'), break_even() (x0) and threshold(k1, model) -> (x*, multiplier,
unimodal, smooth), the maximizer of g/psi, see Model and levystop.stopping.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields

from . import _special
from ._numpy import np
from .errors import (
    BadJumpSupport,
    BadPayoff,
    DivergentTransform,
    DomainError,
    InvalidModel,
    NoFiniteThreshold,
    NonPositiveVolatility,
    SolverError,
    ZeroDiscountForThreshold,
)

__all__ = [
    "Family",
    "GammaJumps",
    "ExponentialJumps",
    "BetaJumps",
    "PointMassJumps",
    "TabulatedJumps",
    "JumpDist",
    "CappedCall",
    "PowerCall",
    "TabulatedPayoff",
    "Payoff",
    "Model",
    "validate",
    "payoff_eval",
    "break_even",
    "model_from_config",
    "model_to_config",
]

MAX_BREAKPOINTS = 64


def _as_float(value) -> float:
    """float(value), with an int too large for a float read as inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _require_finite(what: str, error: type[InvalidModel] = InvalidModel, **params) -> None:
    """Reject NaN, infinite and float-overflowing parameters; tuples are checked
    elementwise."""
    for name, value in params.items():
        values = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(_as_float(v)) for v in values):
            raise error(f"{what} {name} must be finite")


class Family(str, enum.Enum):
    ARITHMETIC = "arithmetic"
    GEOMETRIC = "geometric"


# ---------------------------------------------------------------------------
# jump mark distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaJumps:
    """Gamma(shape, rate) marks on (0, inf)."""

    shape: float
    rate: float

    def __post_init__(self) -> None:
        _require_finite("gamma jump law", shape=self.shape, rate=self.rate)
        if not (self.shape > 0 and self.rate > 0):
            raise InvalidModel("gamma jump law needs shape > 0 and rate > 0")

    support = (0.0, math.inf)

    def unit_marks(self) -> bool:
        return False

    def mean(self) -> float:
        return self.shape / self.rate

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return gen.gamma(self.shape, 1.0 / self.rate, size)

    def laplace(self, s: float) -> float:
        if s <= -self.rate:
            raise DivergentTransform(f"gamma Laplace transform diverges at s = {s}")
        return (self.rate / (self.rate + s)) ** self.shape


@dataclass(frozen=True)
class ExponentialJumps(GammaJumps):
    """Exponential(rate) marks: the gamma law with shape 1, whose maths it inherits."""

    rate: float
    shape: float = field(default=1.0, init=False, repr=False)

    def __post_init__(self) -> None:
        _require_finite("exponential jump law", rate=self.rate)
        if not self.rate > 0:
            raise InvalidModel("exponential jump law needs rate > 0")


@dataclass(frozen=True)
class BetaJumps:
    """Beta(c, d) relative marks on (0, 1)."""

    c: float
    d: float
    _at_zero: tuple = field(init=False, repr=False, compare=False)  # power's k-free part

    def __post_init__(self) -> None:
        _require_finite("beta jump law", c=self.c, d=self.d)
        if not (self.c > 0 and self.d > 0):
            raise InvalidModel("beta jump law needs c > 0 and d > 0")
        if not math.isfinite(self.c + self.d):  # mean() would read 0 and every transform spin
            raise InvalidModel("beta jump law c + d must be finite")
        object.__setattr__(self, "_at_zero", _special.shifted(self.c, self.d, self.d))

    support = (0.0, 1.0)

    def unit_marks(self) -> bool:
        # no atom at 1: every power moment is finite
        return True

    def mean(self) -> float:
        return self.c / (self.c + self.d)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return gen.beta(self.c, self.d, size)

    def laplace(self, s: float) -> float:
        """E[e^{-sZ}] = 1F1(c; c+d; -s), Kummer's function (DLMF 13.4.1): for
        s >= 0 Kummer's transformation e^{-s} 1F1(d; c+d; s) (DLMF 13.2.39), a
        positive series, or the large-s asymptotic series (DLMF 13.7.2); for
        s < 0 the direct series (DLMF 13.2.2)."""
        value = _special.kummer(self.c, self.d, float(s))
        if not math.isfinite(value):
            raise DivergentTransform(f"beta Laplace transform overflowed at s = {s}")
        return value

    def power(self, k: float) -> float:
        """E[(1-Z)^k] = B(c, d+k)/B(c, d): a log-gamma difference, shifted up by
        Gamma(z+1) = z Gamma(z) (DLMF 5.5.1) into the Stirling series (DLMF 5.11.1)."""
        if self.d + k <= 0:
            raise DivergentTransform(f"beta power transform diverges at k = {k}")
        return _special.beta_power(self.c, self.d, k, self._at_zero)

    def log_mean(self) -> float:
        """E[ln(1-Z)] = digamma(d) - digamma(c+d): the recurrence (DLMF 5.5.2),
        then the asymptotic series (DLMF 5.11.2)."""
        return _special.digamma_diff(self.c, self.d)


@dataclass(frozen=True)
class PointMassJumps:
    """Deterministic mark of size z."""

    z: float

    def __post_init__(self) -> None:
        _require_finite("point mass", z=self.z)
        if not self.z >= 0:
            raise InvalidModel("point mass mark must be nonnegative")

    @property
    def support(self) -> tuple[float, float]:
        return (self.z, self.z)

    def unit_marks(self) -> bool:
        return self.z < 1.0

    def mean(self) -> float:
        return self.z

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.z)

    def laplace(self, s: float) -> float:
        return math.exp(-s * self.z)

    def power(self, k: float) -> float:
        return (1.0 - self.z) ** k

    def log_mean(self) -> float:
        return math.log1p(-self.z)


@dataclass(frozen=True)
class TabulatedJumps:
    """Finite discrete mark law: P[Z = nodes[i]] = weights[i]."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        nodes = tuple(map(_as_float, self.nodes))
        weights = tuple(map(_as_float, self.weights))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        _require_finite("tabulated jump law", nodes=nodes, weights=weights)
        if len(nodes) == 0 or len(nodes) != len(weights):
            raise InvalidModel("tabulated jump law needs matching nonempty nodes/weights")
        if any(v < 0 for v in nodes):
            raise InvalidModel("tabulated jump nodes must be nonnegative")
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise InvalidModel("tabulated jump weights must be nonnegative and sum to 1")

    @property
    def support(self) -> tuple[float, float]:
        return (min(self.nodes), max(self.nodes))

    def unit_marks(self) -> bool:
        return max(self.nodes) < 1.0

    def mean(self) -> float:
        return float(np.dot(self.nodes, self.weights))

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        # inverse-CDF on the cumulative weights
        cdf = np.cumsum(self.weights)
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, gen.random(size), side="right")
        return np.asarray(self.nodes)[np.minimum(idx, len(self.nodes) - 1)]

    def laplace(self, s: float) -> float:
        return float(np.dot(self.weights, np.exp(-s * np.asarray(self.nodes))))

    def power(self, k: float) -> float:
        return float(np.dot(self.weights, (1.0 - np.asarray(self.nodes)) ** k))

    def log_mean(self) -> float:
        return float(np.dot(self.weights, np.log1p(-np.asarray(self.nodes))))


JumpDist = GammaJumps | ExponentialJumps | BetaJumps | PointMassJumps | TabulatedJumps


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CappedCall:
    """g(x) = (min(x, K) - I)^+ : a call on x struck at I, capped at K."""

    K: float
    I: float

    def __post_init__(self) -> None:
        _require_finite("capped call", BadPayoff, K=self.K, I=self.I)
        if not (self.K > self.I):
            raise BadPayoff("capped call needs K > I")

    def eval(self, x):
        out = np.maximum(np.minimum(np.asarray(x, dtype=float), self.K) - self.I, 0.0)
        return out if out.ndim else float(out)

    def deriv(self, x: float) -> float:
        return 1.0 if self.I <= x < self.K else 0.0

    def break_even(self) -> float:
        return self.I

    def threshold(self, k1: float, model: Model) -> tuple[float, float | None, bool, bool]:
        """The interior root of (x - I) k1 u'(x) = 1, x = (k1 I + A)/(k1 - B)
        with 1/u'(x) = A + B x, when k1 u'(K) (K - I) >= 1; else the cap K.
        Only in u = ln x is it a multiple of I, k1/(k1 - 1)."""
        K, I = self.K, self.I
        A, B = model.inv_du
        if k1 * (K - I) >= A + B * K:
            x, multiplier = (k1 * I + A) / (k1 - B), (k1 / (k1 - B) if B else None)
        else:
            x, multiplier = K, None
        return x, multiplier, True, x < K  # smooth fit fails at the cap's kink


@dataclass(frozen=True)
class PowerCall:
    """g(x) = (a x^b - K)^+ for x >= 0. Concave for b < 1, convex for b > 1."""

    a: float
    b: float
    K: float

    def __post_init__(self) -> None:
        _require_finite("power call", BadPayoff, a=self.a, b=self.b, K=self.K)
        if not (self.a > 0 and self.b > 0 and self.K > 0):
            raise BadPayoff("power call needs a, b, K > 0")

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        out = np.maximum(self.a * np.power(np.maximum(x, 0.0), self.b) - self.K, 0.0)
        return out if out.ndim else float(out)

    def deriv(self, x: float) -> float:
        if x < self.break_even():
            return 0.0
        return self.a * self.b * x ** (self.b - 1.0)

    def break_even(self) -> float:
        return (self.K / self.a) ** (1.0 / self.b)

    def threshold(self, k1: float, model: Model) -> tuple[float, float, bool, bool]:
        a, b, K = self.a, self.b, self.K
        if k1 <= b:
            raise NoFiniteThreshold(
                f"power payoff growth b = {b} is not dominated: k1 = {k1:.6g} <= b"
            )
        return (k1 * K / ((k1 - b) * a)) ** (1.0 / b), k1 / (k1 - b), True, True


def _sign(v: float) -> float:
    # numpy's sign: nan for nan, so that it differs from every sign
    return v if v != v or v == 0.0 else math.copysign(1.0, v)


def _pchip_edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    # one-sided three-point estimate, clipped to keep the data's shape
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(x: tuple[float, ...], y: tuple[float, ...]) -> list[float]:
    """Node slopes of the shape-preserving PCHIP interpolant (Fritsch &
    Carlson 1980): 0 where the secants change sign or vanish, else their
    weighted harmonic mean; three-point estimates at the ends. The float
    operations are scipy's PchipInterpolator._find_derivatives, in its order."""
    h = [b - a for a, b in zip(x, x[1:])]
    m = [(b - a) / hk for a, b, hk in zip(y, y[1:], h)]
    if len(m) == 1:
        return [m[0], m[0]]
    d = [_pchip_edge_slope(h[0], h[1], m[0], m[1])]
    for h0, h1, m0, m1 in zip(h, h[1:], m, m[1:]):
        if _sign(m0) != _sign(m1) or m0 == 0.0 or m1 == 0.0:
            d.append(0.0)
            continue
        w1, w2 = 2 * h1 + h0, h1 + 2 * h0
        whmean = (w1 / m0 + w2 / m1) / (w1 + w2)
        # a subnormal secant overflows the mean to inf, so the slope is 0;
        # secants overflowing to inf give a zero mean, which numpy divides to inf
        d.append(1.0 / whmean if whmean else math.inf)
    d.append(_pchip_edge_slope(h[-1], h[-2], m[-1], m[-2]))
    return d


@dataclass(frozen=True)
class TabulatedPayoff:
    """Monotone piecewise cubic through (breakpoints, values).

    PCHIP interpolation preserves monotonicity between the nodes. Below
    the first breakpoint the payoff is held constant at values[0], above
    the last it continues linearly with the terminal slope. At most 64
    breakpoints; values must be nondecreasing and cross zero so a unique
    break-even point exists.

    Construction caches per interval the left breakpoint with the
    ascending power coefficients of g and g' (scipy's CubicHermiteSpline
    and its derivative, bit for bit), which eval and deriv sum for a
    float x; the same g coefficients as a (4, n-1) array for array x; the
    terminal slope, PCHIP's last node slope (exactly 0 where the shape
    rule clips it, so a table can end flat); and the break-even point.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    _end_slope: float = field(init=False, repr=False, compare=False)
    _pieces: tuple = field(init=False, repr=False, compare=False)
    _coefs: np.ndarray = field(init=False, repr=False, compare=False)
    _break_even: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bp = tuple(map(_as_float, self.breakpoints))
        vals = tuple(map(_as_float, self.values))
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        _require_finite("tabulated payoff", BadPayoff, breakpoints=bp, values=vals)
        if len(bp) < 2 or len(bp) != len(vals):
            raise BadPayoff("tabulated payoff needs matching breakpoints/values, at least 2")
        if len(bp) > MAX_BREAKPOINTS:
            raise BadPayoff(f"tabulated payoff capped at {MAX_BREAKPOINTS} breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise BadPayoff("breakpoints must be strictly increasing")
        if any(v2 < v1 for v1, v2 in zip(vals, vals[1:])):
            raise BadPayoff("tabulated payoff values must be nondecreasing")
        if vals[0] > 0:
            raise BadPayoff("tabulated payoff is positive everywhere: no break-even point")
        if vals[-1] <= 0:
            raise BadPayoff("tabulated payoff never becomes positive")
        slopes = _pchip_slopes(bp, vals)
        if not all(map(math.isfinite, slopes)):  # slopes overflow on extreme tables
            raise BadPayoff("tabulated payoff cannot be interpolated: "
                            "`dydx` must contain only finite values.")
        if not math.isfinite(bp[-1] - bp[0]):
            raise BadPayoff("tabulated payoff breakpoints must span a finite interval")
        pieces = []
        for x0, x1, y0, y1, d0, d1 in zip(bp, bp[1:], vals, vals[1:], slopes, slopes[1:]):
            dx = x1 - x0
            secant = (y1 - y0) / dx
            t = (d0 + d1 - 2 * secant) / dx
            c2, c3 = (secant - d0) / dx - t, t / dx
            pieces.append((x0, (y0, d0, c2, c3), (d0, 2.0 * c2, 3.0 * c3)))
        coefs = np.array([p[1] for p in pieces]).T.copy()
        if not np.all(np.isfinite(coefs)):  # a steep rise over a subnormal interval
            raise BadPayoff("tabulated payoff cannot be interpolated: its cubic pieces overflow")
        object.__setattr__(self, "_pieces", tuple(pieces))
        object.__setattr__(self, "_coefs", coefs)
        object.__setattr__(self, "_end_slope", slopes[-1])
        # bisection to 1e-12 on the segment where g turns positive (the
        # last nonpositive node is never the last node: vals[-1] > 0)
        idx = max(i for i, v in enumerate(vals) if v <= 0.0)
        lo, hi = bp[idx], bp[idx + 1]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self._piece_sum(mid, 1) <= 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * max(1.0, abs(hi)):
                break
        object.__setattr__(self, "_break_even", 0.5 * (lo + hi))

    def _piece_sum(self, x: float, which: int) -> float:
        """The spline (which = 1) or its derivative (which = 2) at x in
        [breakpoints[0], breakpoints[-1]]: sum c_k s^k by ascending k, as
        scipy's PPoly does, so the result is bitwise equal to the spline's."""
        bp = self.breakpoints
        piece = self._pieces[min(bisect_right(bp, x), len(bp) - 1) - 1]
        s = x - piece[0]
        out, power = 0.0, 1.0
        for c in piece[which]:
            out += c * power
            power *= s
        return out

    def eval(self, x):
        bp = self.breakpoints
        if isinstance(x, float):
            x = float(x)
            if x > bp[-1]:
                return self.values[-1] + self._end_slope * (x - bp[-1])
            return self._piece_sum(max(x, bp[0]), 1)
        x = np.asarray(x, dtype=float)
        nodes = np.asarray(bp)
        inside = np.clip(x, bp[0], bp[-1])
        piece = np.minimum(np.searchsorted(nodes, inside, side="right"), len(bp) - 1) - 1
        s = inside - nodes[piece]
        out, power = 0.0, 1.0
        for c in self._coefs:  # the _piece_sum order, elementwise
            out = out + c[piece] * power
            power = power * s
        out = np.where(x > bp[-1], self.values[-1] + self._end_slope * (x - bp[-1]), out)
        return out if out.ndim else float(out)

    def deriv(self, x: float) -> float:
        bp = self.breakpoints
        if x < bp[0]:
            return 0.0
        if x >= bp[-1]:
            return self._end_slope
        return self._piece_sum(float(x), 2)

    def break_even(self) -> float:
        return self._break_even

    def threshold(self, k1: float, model: Model) -> tuple[float, None, bool, bool]:
        """The exact maximizer of g/psi over (x0, inf), and whether it is the
        only local maximum: the best of the breakpoints above x0, the roots of
        each piece's first-order cubic (A + B x) g' - k1 g, with 1/u'(x) =
        A + B x and g a cubic in s = x - b, and the linear tail's root,
        compared on log g - k1 u(x); ties go to the largest point. g is C1
        above x0, so smooth fit holds there."""
        bp, x0, (A, B) = self.breakpoints, self._break_even, model.inv_du
        v, m, end = self.values[-1], self._end_slope, bp[-1]
        if m > 0 and (k1 < B or k1 == B and v <= m * end):
            raise NoFiniteThreshold("g/psi keeps increasing; sup not attained")
        points, signs = [], []  # candidates; slope signs between them, in order
        for (b, (c0, c1, c2, c3), _), hi in zip(self._pieces, bp[1:]):
            if hi <= x0:
                continue
            a = A + B * b  # 1/u'(b + s) = a + B s
            foc = (c3 * (3.0 * B - k1), c2 * (2.0 * B - k1) + 3.0 * a * c3,
                   c1 * (B - k1) + 2.0 * a * c2, a * c1 - k1 * c0)
            try:
                roots = np.roots(foc)
            except np.linalg.LinAlgError:  # a subnormal or non-finite coefficient overflows
                raise SolverError(f"first-order cubic of the piece at {b} is not finite "
                                  f"at k1 = {k1}") from None
            # a complex pair contributes its real part: a spare candidate
            # that covers a double root which rounding moved off the real line
            roots, lo = b + roots.real, max(b, x0)
            ends = np.concatenate(([lo], np.sort(roots[(roots > lo) & (roots < hi)]), [hi]))
            signs += np.sign(np.polyval(foc, 0.5 * (ends[:-1] + ends[1:]) - b)).tolist()
            points += ends[1:].tolist()
        # the linear tail's root: the capped call's, with I at the line's zero end - v/m
        tail = (k1 * (end - v / m) + A) / (k1 - B) if m > 0 and k1 > B else end
        if tail > end:
            points.append(tail)
            signs.append(1.0)
        signs.append(-1.0)  # g/psi falls beyond the last candidate

        xs = np.array(points)
        g = self.eval(xs)
        log_ratio = np.full(len(xs), -np.inf)
        pos = g > 0
        log_ratio[pos] = np.log(g[pos]) - k1 * model.u(xs[pos])
        best = len(xs) - 1 - int(np.argmax(log_ratio[::-1]))
        if not g[best] > 0:
            raise SolverError("tabulated threshold search ended at a nonpositive payoff")
        signs = [s for s in signs if s]
        peaks = sum(a > 0 > b for a, b in zip(signs, signs[1:]))
        return float(xs[best]), None, peaks <= 1, True


Payoff = CappedCall | PowerCall | TabulatedPayoff


def payoff_eval(payoff: Payoff, x):
    """g(x), vectorized over x."""
    return payoff.eval(x)


def break_even(payoff: Payoff) -> float:
    """The unique x0 with g > 0 strictly above and g <= 0 at or below."""
    return payoff.break_even()


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Model:
    """Validated dynamics + discounting, and the map to the engine coordinate.

    drift is mu (arithmetic) or alpha (geometric); jump_scale is the
    arithmetic gamma >= 0, pinned to 1 for geometric dynamics, where the
    jump map is x -> x(1 - Z). In u = x (arithmetic) or ln x (geometric)
    both families are one Levy process, u_t = u + (c - ito) t + sigma W_t
    - sum W_i, with c the compensated drift, ito = B sigma^2/2, 1/u'(x) =
    A + B x for (A, B) = inv_du, (1, 0) or (0, 1), and engine marks
    W = gamma Z or -ln(1 - Z). The solvers know the family only through
    the members below, whose constants are built once, with the model.
    """

    family: Family
    drift: float
    volatility: float
    jump_intensity: float
    jump_dist: JumpDist | None
    discount: float
    jump_scale: float = 1.0
    mean_jump: float = field(init=False, repr=False, compare=False)  # mbar = E[Z]
    inv_du: tuple[float, float] = field(init=False, repr=False, compare=False)
    state_floor: float = field(init=False, repr=False, compare=False)  # u needs x above it
    ito: float = field(init=False, repr=False, compare=False)
    compensated_drift: float = field(init=False, repr=False, compare=False)
    # c - ito, in the float order in which Monte Carlo replays stay bit for bit
    engine_drift: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        _require_finite("model", drift=self.drift, volatility=self.volatility,
                        jump_intensity=self.jump_intensity, discount=self.discount,
                        jump_scale=self.jump_scale)
        if not self.volatility > 0:
            raise NonPositiveVolatility("volatility must be strictly positive")
        if self.jump_intensity < 0:
            raise InvalidModel("jump intensity must be nonnegative")
        if self.discount < 0:
            raise InvalidModel("discount rate must be nonnegative")
        if self.jump_intensity > 0 and self.jump_dist is None:
            raise InvalidModel("positive jump intensity needs a jump distribution")
        log = self.family is Family.GEOMETRIC
        if log:
            object.__setattr__(self, "jump_scale", 1.0)
            if self.jump_dist is not None:
                if self.jump_dist.support[0] < 0 or not self.jump_dist.unit_marks():
                    raise BadJumpSupport(
                        "geometric dynamics need relative jumps inside [0, 1)"
                    )
        else:
            if self.jump_scale < 0:
                raise InvalidModel("jump scale must be nonnegative")
            if self.jump_dist is not None and self.jump_dist.support[0] < 0:
                raise BadJumpSupport("arithmetic jump marks must be nonnegative")
        mbar = 0.0 if self.jump_dist is None else self.jump_dist.mean()
        object.__setattr__(self, "mean_jump", mbar)
        object.__setattr__(self, "inv_du", (0.0, 1.0) if log else (1.0, 0.0))
        object.__setattr__(self, "state_floor", 0.0 if log else -math.inf)
        object.__setattr__(self, "ito", 0.5 * self.volatility ** 2 if log else 0.0)
        compensator = self.jump_scale * self.jump_intensity * mbar
        object.__setattr__(self, "compensated_drift", self.drift + compensator)
        object.__setattr__(self, "engine_drift", self.drift - self.ito + compensator)

    def u(self, x):
        """The engine coordinate of states x, a float or an array: x, or ln x."""
        if self.family is Family.ARITHMETIC:
            return x
        self.require_states(x)
        return math.log(x) if isinstance(x, (int, float)) else np.log(x)

    def du(self, a, b):
        """u(a) - u(b), floats or arrays, a difference that does not overflow:
        a - b, or ln(a/b), with ln a - ln b where a float a/b overflows."""
        if self.family is Family.ARITHMETIC:
            return a - b
        if not isinstance(a, (int, float)):
            with np.errstate(divide="ignore"):  # ln 0 = -inf, where psi vanishes
                return np.log(a / b)
        ratio = a / b
        return math.log(ratio) if math.isfinite(ratio) else math.log(a) - math.log(b)

    def require_states(self, x) -> None:
        """DomainError unless every state in x, a float or an array, is above state_floor."""
        below = x <= self.state_floor
        if below if isinstance(x, (int, float)) else below.any():
            raise DomainError(f"{self.family.value} states must be above {self.state_floor}")

    def mark_transform(self, k: float) -> float:
        """E[e^{-kW}]: E[e^{-gamma k Z}], or E[(1-Z)^k]; 1 without jumps."""
        if self.jump_intensity == 0.0 or self.jump_dist is None:
            return 1.0
        if self.family is Family.GEOMETRIC:
            return self.jump_dist.power(k)
        return self.jump_dist.laplace(self.jump_scale * k)

    def mark_mean(self) -> float:
        """E[W]: gamma mbar, or -E[ln(1-Z)]; 0 without jumps."""
        if self.jump_intensity == 0.0 or self.jump_dist is None:
            return 0.0
        if self.family is Family.GEOMETRIC:
            return -self.jump_dist.log_mean()
        return self.jump_scale * self.mean_jump

    def marks(self, z: np.ndarray) -> np.ndarray:
        """The engine jumps W of state marks z: gamma z, or -ln(1 - z)."""
        return -np.log1p(-z) if self.family is Family.GEOMETRIC else self.jump_scale * z

    def require_positive_discount(self) -> None:
        if not self.discount > 0:
            raise ZeroDiscountForThreshold(
                "r = 0 only prices hitting events; thresholds need r > 0"
            )


def validate(model: Model, payoff: Payoff | None = None) -> Model:
    """Check cross-object invariants; returns the model unchanged.

    Model-only invariants already hold by construction. The extra check
    here is payoff/family pairing: fractional powers need a positive
    state, so PowerCall is geometric-only.
    """
    if payoff is not None:
        if isinstance(payoff, PowerCall) and model.family is Family.ARITHMETIC:
            raise BadPayoff("power payoffs require geometric dynamics (x > 0)")
        if model.family is Family.GEOMETRIC and payoff.break_even() <= 0:
            raise BadPayoff("geometric dynamics need a positive break-even point")
    return model


# ---------------------------------------------------------------------------
# JSON config wire format
# ---------------------------------------------------------------------------

def _kinds(**classes) -> dict:
    """kind -> (class, {init field name: True when it takes a list of numbers})."""
    return {kind: (cls, {f.name: str(f.type).startswith("tuple") for f in fields(cls) if f.init})
            for kind, cls in classes.items()}


_JUMP_KINDS = _kinds(gamma=GammaJumps, exponential=ExponentialJumps, beta=BetaJumps,
                     point_mass=PointMassJumps, tabulated=TabulatedJumps)
_PAYOFF_KINDS = _kinds(capped_call=CappedCall, power_call=PowerCall, tabulated=TabulatedPayoff)


def _number(value, key: str) -> float:
    """A finite JSON number as a float; InvalidModel naming the key otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = _as_float(value)
        if math.isfinite(number):
            return number
    raise InvalidModel(f"config key {key!r} must be a finite number, got {value!r:.40}")


def _numbers(value, key: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise InvalidModel(f"config key {key!r} must be a list of numbers")
    return tuple(_number(v, f"{key}[{i}]") for i, v in enumerate(value))


def _build(spec, table: dict, what: str):
    if not isinstance(spec, dict):
        raise InvalidModel(f"config key {what!r} must be an object with 'kind' and 'params'")
    extra = set(spec) - {"kind", "params"}
    if extra:
        raise InvalidModel(f"unknown {what} keys: {sorted(extra)}")
    kind, params = spec.get("kind"), spec.get("params", {})
    if not isinstance(kind, str) or kind not in table:
        raise InvalidModel(f"unknown {what} kind {kind!r:.40}; expected one of {sorted(table)}")
    if not isinstance(params, dict):
        raise InvalidModel(f"config key '{what}.params' must be an object")
    cls, names = table[kind]
    missing = [n for n in names if n not in params]
    extra = [n for n in params if n not in names]
    if missing or extra:
        raise InvalidModel(f"{what} {kind!r} params: missing {missing}, unexpected {extra}")
    return cls(**{n: (_numbers if names[n] else _number)(v, f"{what}.params.{n}")
                  for n, v in params.items()})


def model_from_config(cfg: dict) -> tuple[Model, Payoff | None]:
    """Parse the JSON config dict into a validated (model, payoff) pair."""
    if not isinstance(cfg, dict):
        raise InvalidModel("config must be a JSON object")
    known = {"family", "drift", "volatility", "jump_scale", "lambda", "jump_dist", "r", "payoff"}
    extra = set(cfg) - known
    if extra:
        raise InvalidModel(f"unknown config keys: {sorted(extra)}")
    for key in ("family", "drift", "volatility", "r"):
        if key not in cfg:
            raise InvalidModel(f"config missing required key {key!r}")
    try:
        family = Family(cfg["family"])
    except ValueError:
        raise InvalidModel(f"unknown family {cfg['family']!r:.40}") from None
    dist = None
    if cfg.get("jump_dist") is not None:
        dist = _build(cfg["jump_dist"], _JUMP_KINDS, "jump_dist")
    payoff = None
    if cfg.get("payoff") is not None:
        payoff = _build(cfg["payoff"], _PAYOFF_KINDS, "payoff")
    model = Model(
        family=family,
        drift=_number(cfg["drift"], "drift"),
        volatility=_number(cfg["volatility"], "volatility"),
        jump_intensity=_number(cfg.get("lambda", 0.0), "lambda"),
        jump_dist=dist,
        discount=_number(cfg["r"], "r"),
        jump_scale=_number(cfg.get("jump_scale", 1.0), "jump_scale"),
    )
    return validate(model, payoff), payoff


def _to_config(obj, table: dict) -> dict:
    for kind, (cls, names) in table.items():
        if type(obj) is cls:
            return {"kind": kind, "params": {n: getattr(obj, n) for n in names}}
    raise TypeError(f"unregistered config type {type(obj).__name__}")


def model_to_config(model: Model, payoff: Payoff | None = None) -> dict:
    """Normalized config echo: every key explicit, defaults filled in."""
    cfg = {
        "family": model.family.value,
        "drift": model.drift,
        "volatility": model.volatility,
        "jump_scale": model.jump_scale,
        "lambda": model.jump_intensity,
        "jump_dist": None if model.jump_dist is None else _to_config(model.jump_dist, _JUMP_KINDS),
        "r": model.discount,
        "payoff": None if payoff is None else _to_config(payoff, _PAYOFF_KINDS),
    }
    return cfg
