"""The Beta jump law's three special functions, in plain Python floats.

  kummer(c, d, s)               E[e^{-sZ}] = 1F1(c; c+d; -s)
  beta_power(c, d, k, at_zero)  E[(1-Z)^k] = B(c, d+k) / B(c, d)
  digamma_diff(c, d)            E[ln(1-Z)] = psi(d) - psi(c+d)

for Z ~ Beta(c, d); at_zero = shifted(c, d, d) is the part of beta_power
that a law computes once. Each sums a short series over Python floats,
which costs less than a numpy or scipy call's overhead.
"""
from __future__ import annotations

from math import ceil, exp, inf, lgamma, log, log1p

_TOL = 1e-17  # a series stops once its terms fall below _TOL times its sum
_MAX_TERMS = 1 << 20
_RESCALE = 2.0 ** -900  # keeps a growing sum finite; exact in binary
_LOG_MAX = 709.78  # exp overflows above this


def kummer(c: float, d: float, s: float) -> float:
    """1F1(c; c+d; -s), Kummer's function (DLMF 13.2.2); inf past the float range.

    Large s > 40 + 2(c+d): the asymptotic series Gamma(c+d)/Gamma(d) s^{-c}
    sum_n (c)_n (1-d)_n / (n! s^n) (DLMF 13.7.2), when its terms shrink to
    _TOL. Otherwise s >= 0 sums Kummer's transformation e^{-s} 1F1(d; c+d; s)
    (DLMF 13.2.39) and s < 0 the series itself: both have positive terms."""
    if not -inf < s < inf:
        return 0.0 if s == inf else abs(s)  # -inf overflows, nan stays nan
    b = c + d
    if s > 40.0 + 2.0 * b:
        total = term = 1.0
        for n in range(_MAX_TERMS):
            nxt = term * (c + n) * (1.0 - d + n) / ((n + 1) * s)
            if abs(nxt) >= abs(term):
                break  # diverging before it converged: sum the series below
            total += nxt
            term = nxt
            if abs(term) < _TOL * abs(total):
                return exp(lgamma(b) - lgamma(d) - c * log(s)) * total
    a, z = (d, s) if s >= 0.0 else (c, -s)
    total = term = m = 1.0
    scale = 0  # the sum is total * 2^(900 scale)
    for _ in range(_MAX_TERMS):
        term *= a * z / (b * m)
        a += 1.0
        b += 1.0
        m += 1.0
        total += term
        if total > 1e250:
            total *= _RESCALE
            term *= _RESCALE
            scale += 1
        if m > z and term < _TOL * total:  # from here on each term is under z/m < 1 of the last
            break
    else:
        return inf
    if scale == 0 and s < 700.0:  # e^{-s} is a normal float
        return exp(-s) * total if s >= 0.0 else total
    log_value = log(total) + 900 * log(2.0) * scale - max(s, 0.0)
    return inf if log_value > _LOG_MAX else exp(log_value)


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2 = sum_n B_2n / (2n (2n-1) z^(2n-1))
    (DLMF 5.11.1), six terms by Horner's rule; the first omitted term is
    below 6e-17 at z >= 12."""
    w = 1.0 / (z * z)
    return (1 / 12 + w * (-1 / 360 + w * (1 / 1260 + w * (-1 / 1680 + w * (
        1 / 1188 + w * (-691 / 360360)))))) / z


def shifted(c: float, d: float, low: float) -> tuple:
    """beta_power's part that depends on k only through n, the number of unit
    shifts that take low = min(d, d+k) to 12 or above: (n, x, y, tail(y) -
    tail(x), ln(y/x)) with x = d + n and y = c + d + n."""
    n = ceil(12.0 - low) if low < 12.0 else 0
    x, y = d + n, c + d + n
    return n, x, y, _stirling_tail(y) - _stirling_tail(x), log1p((y - x) / x)


def beta_power(c: float, d: float, k: float, at_zero: tuple) -> float:
    """Gamma(d+k) Gamma(c+d) / (Gamma(d) Gamma(c+d+k)) for d + k > 0, with
    at_zero = shifted(c, d, d), which serves every k >= 0.

    exp(lgd(d, k) - lgd(c+d, k)) with lgd(x, k) = ln Gamma(x+k) - ln Gamma(x),
    the idea of TOMS 708's algdiv (Didonato & Morris 1992). Both pairs are
    shifted up together by ln Gamma(z) = ln Gamma(z+1) - ln z (DLMF 5.5.1),
    in one running product, until every argument is >= 12; then the
    Stirling series (DLMF 5.11.1) is differenced with log1p."""
    h = float(k)  # numpy scalars make every step below slower
    n, x, y, tail, log_ratio = at_zero if h >= 0.0 else shifted(c, d, d + h)
    ratio = 1.0
    if n:
        y0 = c + d
        dc = y0 - d
        hc = h * dc
        # step i multiplies x_i (y_i + h) / ((x_i + h) y_i) = t / (t + hc) with
        # t = x_i (y_i + h), whose first difference grows by 2 a step
        t = d * (y0 + h)
        dt = d + d + 1.0 + dc + h
        for _ in range(n):
            ratio *= t / (t + hc)
            t += dt
            dt += 2.0
    xh, yh = x + h, y + h
    return ratio * exp((xh - 0.5) * log1p(h / x) - (yh - 0.5) * log1p(h / y) - h * log_ratio
                       + _stirling_tail(xh) - _stirling_tail(yh) + tail)


def digamma_diff(c: float, d: float) -> float:
    """psi(d) - psi(c+d) < 0: the recurrence psi(z) = psi(z+1) - 1/z (DLMF 5.5.2)
    up to z >= 10, then the asymptotic series (DLMF 5.11.2). With c carried
    exactly, every part is summed with one sign, so nothing cancels."""
    x, y = d, c + d
    total = 0.0
    while x < 10.0:
        total += c / y / x  # 1/x - 1/y
        x += 1.0
        y += 1.0
    # psi(z) - ln z + 1/(2z) = -sum_n B_2n / (2n z^2n), below 5e-17 at z >= 10 after 7 terms
    for z, sign in ((x, 1.0), (y, -1.0)):
        w = 1.0 / (z * z)
        total += sign * w * (1 / 12 + w * (-1 / 120 + w * (1 / 252 + w * (-1 / 240 + w * (
            1 / 132 + w * (-691 / 32760 + w / 12))))))
    return -(total + log1p(c / x) + 0.5 * c / x / y)
