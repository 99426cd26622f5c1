"""Output checks, run outside the timed region.

The characteristic-equation re-check evaluates every transform in mpmath
at 30 significant digits, independently of the package's own code (Beta
Laplace transforms through Kummer's function 1F1, which the package does
not use), and asks that the equation changes sign across
``k1 * (1 -+ ROOT_RTOL)``.
"""
from __future__ import annotations

import csv
import io
import math

import mpmath

ROOT_RTOL = 1e-10      # measured worst case 6e-13 (arithmetic Beta), 2e-15 otherwise
ORDER_TOL = 1e-10      # sandwich ordering contract stated by levystop.bounds
TABLE_TOL = 0.02       # percentage points, the acceptance tolerance


def _mp(v) -> mpmath.mpf:
    return mpmath.mpf(repr(float(v)))


def _mp_mean(dist: dict) -> mpmath.mpf:
    p = dist["params"]
    kind = dist["kind"]
    if kind == "gamma":
        return _mp(p["shape"]) / _mp(p["rate"])
    if kind == "exponential":
        return 1 / _mp(p["rate"])
    if kind == "beta":
        return _mp(p["c"]) / (_mp(p["c"]) + _mp(p["d"]))
    if kind == "point_mass":
        return _mp(p["z"])
    return mpmath.fsum(_mp(z) * _mp(w) for z, w in zip(p["nodes"], p["weights"]))


def _mp_laplace(dist: dict, s) -> mpmath.mpf:
    p = dist["params"]
    kind = dist["kind"]
    if kind == "gamma":
        return (_mp(p["rate"]) / (_mp(p["rate"]) + s)) ** _mp(p["shape"])
    if kind == "exponential":
        return _mp(p["rate"]) / (_mp(p["rate"]) + s)
    if kind == "beta":
        c, d = _mp(p["c"]), _mp(p["d"])
        return mpmath.hyp1f1(c, c + d, -s)
    if kind == "point_mass":
        return mpmath.exp(-s * _mp(p["z"]))
    return mpmath.fsum(_mp(w) * mpmath.exp(-s * _mp(z)) for z, w in zip(p["nodes"], p["weights"]))


def _mp_power(dist: dict, k) -> mpmath.mpf:
    p = dist["params"]
    kind = dist["kind"]
    if kind == "beta":
        c, d = _mp(p["c"]), _mp(p["d"])
        return mpmath.beta(c, d + k) / mpmath.beta(c, d)
    if kind == "point_mass":
        return (1 - _mp(p["z"])) ** k
    return mpmath.fsum(_mp(w) * (1 - _mp(z)) ** k for z, w in zip(p["nodes"], p["weights"]))


def mp_char_eq(cfg: dict, k) -> mpmath.mpf:
    """The characteristic equation of a JSON config, evaluated in mpmath."""
    s2 = _mp(cfg["volatility"]) ** 2
    lam = _mp(cfg.get("lambda", 0.0))
    dist = cfg.get("jump_dist")
    mbar = _mp_mean(dist) if dist is not None and lam > 0 else mpmath.mpf(0)
    r = _mp(cfg["r"])
    if cfg["family"] == "arithmetic":
        gamma = _mp(cfg.get("jump_scale", 1.0))
        c = _mp(cfg["drift"]) + gamma * lam * mbar
        jump = lam * _mp_laplace(dist, gamma * k) if lam > 0 else 0
        return s2 * k * k / 2 + c * k + jump - (r + lam)
    c = _mp(cfg["drift"]) + lam * mbar
    jump = lam * _mp_power(dist, k) if lam > 0 else 0
    return s2 * k * (k - 1) / 2 + c * k + jump - (r + lam)


def root_is_exact(cfg: dict, k1: float) -> bool:
    """The equation changes sign across k1 within a relative ROOT_RTOL."""
    with mpmath.workdps(30):
        k = _mp(k1)
        lo = mp_char_eq(cfg, k * (1 - mpmath.mpf(ROOT_RTOL)))
        hi = mp_char_eq(cfg, k * (1 + mpmath.mpf(ROOT_RTOL)))
        return bool(lo <= 0 <= hi)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_root(payload: dict) -> bool:
    k1, lo, hi = payload["k1"], payload["bracket_low"], payload["bracket_high"]
    return _finite(k1, lo, hi) and k1 > 0 and lo <= k1 <= hi


def check_solve(payload: dict, csv_bytes: bytes) -> bool:
    if not check_root(payload):
        return False
    xs, lo, hi = payload["x_star"], payload["x_star_low"], payload["x_star_high"]
    if not (_finite(xs, lo, hi, payload["value"], payload["certainty_time"])
            and lo <= xs <= hi):
        return False
    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
    if rows[0] != ["x", "v_low", "v", "v_high"] or len(rows) != 201:
        return False
    for row in rows[1:]:
        _, v_low, v, v_high = (float(c) for c in row)
        if not (_finite(v_low, v, v_high) and v_low - v <= ORDER_TOL and v - v_high <= ORDER_TOL):
            return False
    return True


def check_sweep(csv_bytes: bytes, param: str, n: int) -> bool:
    lines = csv_bytes.decode().split("\r\n")
    trailer = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines if ln and not ln.startswith("#")))
    if rows[0] != [param, "k1", "x_star", "theta_star", "mu_hat"] or len(rows) != n + 1:
        return False
    if len(trailer) != 2 or not trailer[0].startswith("# k1 ") or not trailer[1].startswith("# x_star "):
        return False
    for row in rows[1:]:
        vals = [float(c) for c in row]
        if not (_finite(*vals) and vals[1] > 0):
            return False
    return True


def check_reproduce(csv_bytes: bytes, target: str, targets: dict) -> bool:
    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
    header, body = rows[0], [[float(c) for c in row] for row in rows[1:]]
    if not all(_finite(*row) for row in body):
        return False
    if target in targets:
        ref = targets[target]
        return (len(body) == ref.shape[0]
                and all(abs(v - t) <= TABLE_TOL for row, ref_row in zip(body, ref)
                        for v, t in zip(row[1:], ref_row)))
    cols = {name: [row[i] for row in body] for i, name in enumerate(header)}
    if target == "figure1":
        return len(body) == 46 and all(a <= b <= c for a, b, c in zip(
            cols["p_hat_r_lambda"], cols["p"], cols["p_hat_r"]))
    if target == "figure2":
        return len(body) == 301 and all(a - b <= ORDER_TOL and b - c <= ORDER_TOL for a, b, c in zip(
            cols["v_r_lambda"], cols["v"], cols["v_r"]))
    return len(body) == 46 and all(a <= b <= c for a, b, c in zip(
        cols["x_star_r_lambda"], cols["x_star"], cols["x_star_r"]))
