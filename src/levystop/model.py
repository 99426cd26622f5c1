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
g') and break_even() (x0); one whose g/psi has a closed-form maximizer
also has threshold(k1, family) -> (x*, multiplier), see levystop.stopping.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import special
from scipy.interpolate import PchipInterpolator

from .errors import (
    BadJumpSupport,
    BadPayoff,
    DivergentTransform,
    InvalidModel,
    NoFiniteThreshold,
    NonPositiveVolatility,
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


def _require_finite(what: str, error: type[InvalidModel] = InvalidModel, **params) -> None:
    """Reject NaN and infinite parameters; tuples are checked elementwise."""
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
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

    support = (0.0, np.inf)

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
class ExponentialJumps:
    """Exponential(rate) marks, the shape = 1 gamma special case."""

    rate: float

    def __post_init__(self) -> None:
        _require_finite("exponential jump law", rate=self.rate)
        if not self.rate > 0:
            raise InvalidModel("exponential jump law needs rate > 0")

    support = (0.0, np.inf)

    def unit_marks(self) -> bool:
        return False

    def mean(self) -> float:
        return 1.0 / self.rate

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return gen.exponential(1.0 / self.rate, size)

    def laplace(self, s: float) -> float:
        if s <= -self.rate:
            raise DivergentTransform(f"exponential Laplace transform diverges at s = {s}")
        return self.rate / (self.rate + s)


@dataclass(frozen=True)
class BetaJumps:
    """Beta(c, d) relative marks on (0, 1)."""

    c: float
    d: float

    def __post_init__(self) -> None:
        _require_finite("beta jump law", c=self.c, d=self.d)
        if not (self.c > 0 and self.d > 0):
            raise InvalidModel("beta jump law needs c > 0 and d > 0")

    support = (0.0, 1.0)

    def unit_marks(self) -> bool:
        # no atom at 1: every power moment is finite
        return True

    def mean(self) -> float:
        return self.c / (self.c + self.d)

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return gen.beta(self.c, self.d, size)

    def laplace(self, s: float) -> float:
        """E[e^{-sZ}] = 1F1(c; c+d; -s), Kummer's function (DLMF 13.4.1)."""
        # Kummer's integral form of 1F1, finite for every real s. scipy's
        # hyp1f1 returns inf or nan for |s| below about 1e-195; there, and up to
        # |s| = 1e-8, the series through s^2 is exact in double precision
        c, d = self.c, self.d
        if abs(s) < 1e-8:
            return 1.0 - s * c / (c + d) * (1.0 - 0.5 * s * (c + 1.0) / (c + d + 1.0))
        value = float(special.hyp1f1(c, c + d, -s))
        if not math.isfinite(value):
            raise DivergentTransform(f"beta Laplace transform overflowed at s = {s}")
        return value

    def power(self, k: float) -> float:
        """E[(1-Z)^k] = B(c, d+k)/B(c, d), evaluated in log-gamma."""
        if self.d + k <= 0:
            raise DivergentTransform(f"beta power transform diverges at k = {k}")
        return math.exp(special.betaln(self.c, self.d + k) - special.betaln(self.c, self.d))

    def log_mean(self) -> float:
        """E[ln(1-Z)] = digamma(d) - digamma(c+d)."""
        return float(special.digamma(self.d) - special.digamma(self.c + self.d))


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
        nodes = tuple(float(v) for v in self.nodes)
        weights = tuple(float(w) for w in self.weights)
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

    def threshold(self, k1: float, family: Family) -> tuple[float, float | None]:
        K, I = self.K, self.I
        if family is Family.ARITHMETIC:
            return (I + 1.0 / k1 if k1 >= 1.0 / (K - I) else K), None
        if k1 >= K / (K - I):
            return k1 * I / (k1 - 1.0), k1 / (k1 - 1.0)
        return K, None


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

    def threshold(self, k1: float, family: Family) -> tuple[float, float]:
        a, b, K = self.a, self.b, self.K
        if k1 <= b:
            raise NoFiniteThreshold(
                f"power payoff growth b = {b} is not dominated: k1 = {k1:.6g} <= b"
            )
        return (k1 * K / ((k1 - b) * a)) ** (1.0 / b), k1 / (k1 - b)


@dataclass(frozen=True)
class TabulatedPayoff:
    """Monotone piecewise cubic through (breakpoints, values).

    PCHIP interpolation preserves monotonicity between the nodes. Below
    the first breakpoint the payoff is held constant at values[0], above
    the last it continues linearly with the terminal slope. At most 64
    breakpoints; values must be nondecreasing and cross zero so a unique
    break-even point exists.

    Construction caches the spline, its terminal slope, the break-even
    point, and per interval the left breakpoint with the coefficients of
    g and g', which eval and deriv sum for a float x.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    _spline: PchipInterpolator = field(init=False, repr=False, compare=False)
    _end_slope: float = field(init=False, repr=False, compare=False)
    _pieces: tuple = field(init=False, repr=False, compare=False)
    _break_even: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bp = tuple(float(v) for v in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
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
        try:
            # a subnormal secant overflows PCHIP's harmonic mean to inf, so the
            # node slope is 0, the value it rounds to: the warning adds nothing
            with np.errstate(over="ignore", divide="ignore"):
                spline = PchipInterpolator(np.asarray(bp), np.asarray(vals), extrapolate=False)
        except ValueError as exc:  # slopes overflow on extreme tables
            raise BadPayoff(f"tabulated payoff cannot be interpolated: {exc}") from exc
        deriv = spline.derivative()
        object.__setattr__(self, "_spline", spline)
        object.__setattr__(self, "_end_slope", float(deriv(bp[-1])))
        object.__setattr__(self, "_pieces", tuple(zip(
            bp[:-1], spline.c[::-1].T.tolist(), deriv.c[::-1].T.tolist())))
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
        out = np.asarray(self._spline(np.clip(x, bp[0], bp[-1])), dtype=float)
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
    """Validated dynamics + discounting.

    drift is mu (arithmetic) or alpha (geometric); jump_scale is the
    arithmetic gamma >= 0 and is pinned to 1 for geometric dynamics,
    where the jump map is fixed at x -> x(1 - Z).
    """

    family: Family
    drift: float
    volatility: float
    jump_intensity: float
    jump_dist: JumpDist | None
    discount: float
    jump_scale: float = 1.0

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
        if self.family is Family.GEOMETRIC:
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

    @property
    def mean_jump(self) -> float:
        """mbar = E[Z], zero when there are no jumps."""
        return 0.0 if self.jump_dist is None else self.jump_dist.mean()

    @property
    def compensated_drift(self) -> float:
        """Drift between jumps: mu + gamma*lambda*mbar, or alpha + lambda*mbar."""
        if self.family is Family.ARITHMETIC:
            return self.drift + self.jump_scale * self.jump_intensity * self.mean_jump
        return self.drift + self.jump_intensity * self.mean_jump

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
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
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
