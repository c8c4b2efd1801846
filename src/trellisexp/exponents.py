"""Gallager-style exponent functions and the three trellis exponent curves.

E0 is the Gallager function, Ex the expurgated function; the curves are

  rtc :  R0(Q)/R for R < R0(Q)                    (random trellis coding)
  cex :  Ex(rho_cex(R), Q)/R,  R = Ex(rho)/rho    (convolutional expurgated)
  trtc:  Ex(rho_trtc(R), Q)/R, R = Ex(rho)/(2rho-1)  (typical random trellis)

all per unit of constraint length, with rates in nats/channel-use.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .channels import Dmc, InputDist, bhattacharyya_matrix

RHO_MAX = 1e6
RESIDUAL_TOL = 1e-10

CURVE_KINDS = ("rtc", "cex", "trtc", "rtimes_rtc", "rtimes_cex", "rtimes_trtc")


class RateOutOfRange(ValueError):
    pass


class NotBinaryInput(ValueError):
    pass


class NotUniformQ(ValueError):
    pass


@dataclass(frozen=True)
class RhoValue:
    rho: float
    residual: float = 0.0


@dataclass(frozen=True)
class ExponentCurve:
    kind: str
    points: list  # (rate, value, rho or None)


def gallager_e0(dmc: Dmc, q: InputDist, rho: float) -> float:
    """Gallager function E0(rho, Q) in nats, rho >= 0."""
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    inner = (q.q[:, None] * dmc.w ** (1.0 / (1.0 + rho))).sum(axis=0)
    return -np.log(np.sum(inner ** (1.0 + rho)))


def expurgated_ex(dmc: Dmc, q: InputDist, rho: float) -> float:
    """Expurgated function Ex(rho, Q) = -rho ln sum QQ' Z(x,x')^{1/rho}."""
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    if rho == 0.0:
        return 0.0
    z = bhattacharyya_matrix(dmc)
    qq = np.outer(q.q, q.q)
    return -rho * np.log(np.sum(qq * z ** (1.0 / rho)))


def expurgated_ex_limit(dmc: Dmc, q: InputDist) -> float:
    """Zero-rate expurgated exponent lim_{rho->inf} Ex(rho, Q) = -E[ln Z]."""
    z = bhattacharyya_matrix(dmc)
    qq = np.outer(q.q, q.q)
    with np.errstate(divide="ignore"):
        logz = np.log(z)
    mass = qq > 0
    if np.any(mass & (z <= 0)):
        return np.inf
    return -float(np.sum(qq[mass] * logz[mass]))


def cutoff_rate(dmc: Dmc, q: InputDist) -> float:
    """Cutoff rate R0(Q) = E0(1, Q) = Ex(1, Q), cross-checked to 1e-10."""
    r0 = gallager_e0(dmc, q, 1.0)
    r0x = expurgated_ex(dmc, q, 1.0)
    if abs(r0 - r0x) > 1e-10:
        raise ArithmeticError(f"E0(1) and Ex(1) disagree: {r0} vs {r0x}")
    return r0


def critical_rate(dmc: Dmc, q: InputDist) -> float:
    """Critical rate dE0/drho at rho = 1, in closed form.

    With a_y = sum_x Q(x) sqrt(W(y|x)) and F = sum_y a_y^2 = e^{-E0(1)},
    dE0/drho(1) = -(1/F) sum_y [a_y^2 ln a_y - a_y/2 sum_x Q(x) sqrt(W) ln W],
    where sqrt(W) ln W and a^2 ln a are 0 at zero entries.
    """
    root = np.sqrt(dmc.w)
    log_w = np.log(dmc.w, out=np.zeros_like(root), where=dmc.w > 0)
    a = q.q @ root
    b = q.q @ (root * log_w)
    log_a = np.log(a, out=np.zeros_like(a), where=a > 0)
    return float(-np.sum(a * a * log_a - 0.5 * a * b) / np.sum(a * a))


def _root_decreasing(g, lo, hi, cap):
    """Root of g on [lo, inf), where g(lo) >= 0 and g crosses zero once.

    Decreasing and concave objectives both qualify; the callers rely on one
    of the two.  `hi` doubles until g(hi) <= 0 and brentq then closes the
    bracket.  Returns lo when g(lo) <= 0, and +inf once hi passes `cap`
    (g stays positive: the root is unbounded or beyond resolution).
    """
    if g(lo) <= 0:
        return lo
    while g(hi) > 0:
        lo, hi = hi, 2 * hi
        if hi > cap:
            return np.inf
    return brentq(g, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)


def _argmax_concave(f, lo, hi=None, xatol=1e-10):
    """Maximise a concave or quasi-concave f on [lo, hi]; returns (x, f(x)).

    A quasi-concave f has no local maximum other than the global one, which
    is all Brent's bounded search needs.  With hi None, the bracket doubles
    outward from 1 while f still increases, and the result is (inf, inf)
    once it passes RHO_MAX.  Brent never evaluates the endpoints itself, so
    f(lo) and f(hi) are compared with its answer.
    """
    if hi is None:
        hi = 1.0
        while f(2 * hi) > f(hi):
            hi *= 2
            if hi > RHO_MAX:
                return np.inf, np.inf
        hi *= 2
    with np.errstate(invalid="ignore"):  # inf values: Brent falls back to golden steps
        res = minimize_scalar(lambda x: -f(x), bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol})
    return max((lo, f(lo)), (hi, f(hi)), (float(res.x), -float(res.fun)),
               key=lambda point: point[1])


def solve_rho(curve_kind: str, dmc: Dmc, q: InputDist, rate: float) -> RhoValue:
    """Solve the defining rho-equation of a curve at rate R (nats).

    cex : R = Ex(rho)/rho, rho >= 1
    trtc: R = Ex(rho)/(2 rho - 1), rho >= 1
    rtc : R = E0(rho)/rho for R > R0(Q), rho in (0, 1)

    cex and trtc are solved in r = 1/rho on [0, 1].  With
    G(r) = -ln sum_{Z > 0} QQ' Z^r, increasing from G(0) = 2 rhat0
    (rhat0 = -1/2 ln QxQ(Z > 0)) to G(1) = R0, Ex(rho) = G(r)/r, so cex
    reads G(r) = R and trtc reads G(r) = (2 - r) R.  The trtc root exists
    iff R > rhat0 and the cex root iff R > 2 rhat0; otherwise rho = inf
    with a nan residual (the exponent is unbounded).  G is evaluated with
    log1p/expm1, so small roots r (tiny rates) keep full relative accuracy.
    The residual is that of the r-equation.
    """
    r0 = cutoff_rate(dmc, q)
    if curve_kind in ("cex", "trtc"):
        if not 0 < rate < r0 + RESIDUAL_TOL:
            raise RateOutOfRange(f"need 0 < R < R0={r0:.6g}, got R={rate}")
        z = bhattacharyya_matrix(dmc)
        qq = np.outer(q.q, q.q)
        on = z > 0
        g_zero = -np.log1p(-qq[~on].sum())  # G(0) = 2 rhat0
        weights, log_z = qq[on] / qq[on].sum(), np.log(z[on])
        g_of_r = lambda r: g_zero - np.log1p(np.sum(weights * np.expm1(r * log_z)))
        if curve_kind == "cex":
            f = lambda r: g_of_r(r) - rate
        else:
            f = lambda r: g_of_r(r) - (2 - r) * rate
        if f(1.0) <= 0:
            r = 1.0
        elif f(0.0) >= 0:
            return RhoValue(np.inf, np.nan)
        else:
            r = brentq(f, 0.0, 1.0, xtol=1e-300, rtol=4 * np.finfo(float).eps)
        return RhoValue(1.0 / r, f(r))
    elif curve_kind == "rtc":
        if rate <= r0:
            raise RateOutOfRange(f"rtc rho branch needs R > R0={r0:.6g}")
        g = lambda rho: gallager_e0(dmc, q, rho) / rho - rate
        if g(1e-12) < 0:
            raise RateOutOfRange("R exceeds the mutual information of (Q, W)")
        rho = _root_decreasing(g, 1e-12, 1.0, 1.0)
    else:
        raise ValueError(f"unknown curve kind {curve_kind!r}")
    return RhoValue(rho, g(rho) if np.isfinite(rho) else np.nan)


def exponent_curve(kind: str, dmc: Dmc, q: InputDist, rate_grid) -> ExponentCurve:
    """Evaluate one exponent curve (or its R-times variant) on a rate grid.

    A point where the rho root does not exist (`solve_rho`) has value inf
    and rho inf.
    """
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind {kind!r}")
    rates = np.asarray(rate_grid, dtype=float)
    if rates.size > 1 and np.any(np.diff(rates) <= 0):
        raise ValueError("rate grid must be strictly increasing")
    base = kind.removeprefix("rtimes_")
    times_r = kind.startswith("rtimes_")
    r0 = cutoff_rate(dmc, q)
    points = []
    for rate in rates:
        if not 0 < rate < r0 + RESIDUAL_TOL:
            raise RateOutOfRange(f"R={rate} outside (0, R0={r0:.6g}) for {kind}")
        if base == "rtc":
            value, rho = r0 / rate, None
        else:
            rho = solve_rho(base, dmc, q, rate).rho
            value = expurgated_ex(dmc, q, rho) / rate if rho < np.inf else np.inf
        if times_r:
            value *= rate
        points.append((float(rate), float(value), rho))
    return ExponentCurve(kind, points)


def costello_form_cex(dmc: Dmc, q: InputDist, rate: float) -> float:
    """Closed-form cex exponent ln Z / ln(2 e^{-R} - 1) for binary-input
    channels under the uniform input distribution (R in nats)."""
    if dmc.num_inputs != 2:
        raise NotBinaryInput(f"channel has {dmc.num_inputs} inputs")
    if np.max(np.abs(q.q - 0.5)) > 1e-9:
        raise NotUniformQ(f"q={q.q} is not uniform")
    r0 = cutoff_rate(dmc, q)
    if not 0 < rate < r0 + RESIDUAL_TOL:
        raise RateOutOfRange(f"need 0 < R < R0={r0:.6g}, got {rate}")
    z = bhattacharyya_matrix(dmc)[0, 1]
    if z >= 1.0:
        return 0.0  # useless channel: identical rows, degenerate form
    return np.log(z) / np.log(2.0 * np.exp(-rate) - 1.0)
