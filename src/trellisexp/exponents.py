"""Gallager-style exponent functions and the three trellis exponent curves.

E0 is the Gallager function, Ex the expurgated function; the curves are

  rtc :  R0(Q)/R for R < R0(Q)                    (random trellis coding)
  cex :  Ex(rho_cex(R), Q)/R,  R = Ex(rho)/rho    (convolutional expurgated)
  trtc:  Ex(rho_trtc(R), Q)/R, R = Ex(rho)/(2rho-1)  (typical random trellis)

all per unit of constraint length, with rates in nats/channel-use.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channels import (Dmc, InputDist, _check_finite_nonnegative, _check_nonnegative, _input_dist,
                       bhattacharyya_matrix)

RHO_MAX = 1e6  # a solved rho at or above this counts as a cap hit
RATE_TOL = 1e-10
_XTOL, _RTOL = 1e-300, 4 * sys.float_info.epsilon  # the root tolerances of brentq

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


@dataclass(frozen=True)
class ExponentCurve:
    kind: str
    points: list  # (rate, value, rho or None)


def gallager_e0(dmc: Dmc, q: InputDist, rho: float) -> float:
    """Gallager function E0(rho, Q) in nats, 0 <= rho < inf."""
    _check_finite_nonnegative("rho", rho)
    q = _input_dist(q, dmc.num_inputs, "channel input")
    inner = (q.q[:, None] * dmc.w ** (1.0 / (1.0 + rho))).sum(axis=0)
    return -np.log(np.sum(inner ** (1.0 + rho)))


class _PairTable:
    """The input pairs of one (W, Q) on which the Bhattacharyya Z is positive.

    Pairs with Z = 0 (disjoint output supports) have QxQ mass 1 - e^{-2 rhat0}
    and drop out of every Ex-type sum at rho < inf.  On the rest, `weights` is
    QQ' renormalised and `log_z` is ln Z, so that
    G(r) = -ln sum QQ' Z^r = 2 rhat0 - ln(1 + sum weights (Z^r - 1)).
    Every quantity is measured from the edge 2 rhat0: `g` is G(r) - 2 rhat0,
    evaluated with log1p/expm1, so it keeps full relative accuracy at small r
    and no caller cancels 2 rhat0 against a rate near it.
    Z is clipped to its Cauchy-Schwarz bound 1 and set to exactly 1 where
    two rows are equal, the diagonal included, so `log_z` <= 0, `weights`
    is never empty and the Z = 1 pairs are exactly those with `log_z` == 0.
    """

    def __init__(self, dmc: Dmc, q: InputDist):
        self.q = q = _input_dist(q, dmc.num_inputs, "channel input")
        z = np.minimum(bhattacharyya_matrix(dmc), 1.0)
        z[np.all(dmc.w[:, None, :] == dmc.w[None, :, :], axis=2)] = 1.0
        qq = np.outer(q.q, q.q)
        self.on = z > 0
        self.weights = qq[self.on] / qq[self.on].sum()
        self.log_z = np.log(z[self.on])
        self.rhat0 = float(-0.5 * np.log1p(-qq[~self.on].sum()))
        # R0 = Ex(1) = G(1) from the table, so it is exactly 0 where every
        # pair of positive QQ' has equal rows; E0(1) is its cross-check
        self.r0 = self.ex(1.0)
        e0_one = gallager_e0(dmc, q, 1.0)
        if abs(self.r0 - e0_one) > 1e-10:
            raise ArithmeticError(f"E0(1) and Ex(1) disagree: {e0_one} vs {self.r0}")

    def g(self, r):
        """G(r) - 2 rhat0, with G(r) = Ex(1/r)/(1/r) increasing from
        G(0) = 2 rhat0 to G(1) = R0.  An array of r gives the array of
        values, each the same float as the scalar call."""
        return self._g_at(np.multiply.outer(r, self.log_z))

    def _g_at(self, r_log_z):
        """G - 2 rhat0 from r ln Z (the last axis runs over the pairs): the
        one expression of G, shared by `g` and `tilted_point`."""
        return -np.log1p((self.weights * np.expm1(r_log_z)).sum(axis=-1))

    def ex(self, rho):
        """Ex(rho) = rho G(1/rho), with Ex(0) = 0 and Ex(inf) its zero-rate
        limit: G'(0) = -E[ln Z] under QxQ where rhat0 = 0, inf otherwise."""
        if rho == np.inf:
            return np.inf if self.rhat0 > 0 else self.tilted_point(0.0)[1]
        return rho * (self.g(1.0 / rho) + 2 * self.rhat0) if rho > 0 else 0.0

    def rho(self, kind, rates):
        """rho >= 1 of the cex equation R = Ex(rho)/rho or the trtc equation
        R = Ex(rho)/(2 rho - 1) at each rate of an array.

        In r = 1/rho on [0, 1], Ex(rho) = G(r)/r, so cex reads G(r) = R and
        trtc reads G(r) = (2 - r) R.  Both are solved from the edge, as
        f(r) = g(r) - target + slope r = 0: cex with target R - 2 rhat0 and
        slope 0, trtc with target 2(R - rhat0) and slope R, so that no rate
        near the edge is cancelled against 2 rhat0.  f is concave and
        increasing, with f(0) = -target and f(1) = R0 - R: rho = 1 where
        R >= R0, and rho = inf (the exponent is unbounded) where
        target <= 0, i.e. R <= 2 rhat0 for cex and R <= rhat0 for trtc.

        The other rates are solved together by Newton's method from r = 0,
        whose iterates rise monotonically to the root of a concave
        increasing f.  A rate whose next iterate does not rise keeps its
        current one, and so gets the same next iterate at every later
        step; the solve ends when no rate rises.  The first step is
        target / f'(0), with f'(0) = G'(0) + slope and G'(0) = -E[ln Z]
        under the table's weights, so it costs no evaluation; each later
        one forms r ln Z once and reads g from its expm1 (`_g_at`) and
        G' = Delta(P_r) from its exp.  Every array operation is
        element-wise or a sum along the pair axis, so a rate takes the same
        iterates in any grid, alone included.
        """
        rates = np.asarray(rates, dtype=float)
        if kind == "cex":
            target, slope = rates - 2 * self.rhat0, np.zeros(rates.shape)
        else:
            target, slope = 2 * (rates - self.rhat0), rates
        rho = np.where(rates >= self.r0, 1.0, np.inf)
        idx = np.flatnonzero((rates < self.r0) & (target > 0))  # f(0) < 0 < f(1)
        target, slope = target[idx], slope[idx]
        x = target / (slope - self.weights @ self.log_z)
        for _ in range(2000):
            r_log_z = np.multiply.outer(x, self.log_z)
            mass = self.weights * np.exp(r_log_z)
            nxt = x - ((self._g_at(r_log_z) - target + slope * x)
                       / (slope - (mass * self.log_z).sum(axis=-1) / mass.sum(axis=-1)))
            rises = nxt > x
            if not rises.any():
                break
            x = np.where(rises, nxt, x)
        else:
            raise RuntimeError("Newton's method failed to converge after 2000 steps")
        rho[idx] = 1.0 / x
        return rho

    def tilted(self, r):
        """Joint type P_r proportional to QQ' Z^r on the Z > 0 pairs, 0
        elsewhere; r = 0 gives QxQ restricted to those pairs, and r = inf its
        limit P_inf, QxQ restricted to the Z = 1 pairs."""
        p = np.zeros(self.on.shape)
        z_r = np.exp(r * self.log_z) if r < np.inf else self.log_z == 0
        p[self.on] = self.weights * z_r
        return p / p.sum()

    def tilted_point(self, r):
        """(D(P_r || QxQ) - 2 rhat0, Delta(P_r)) of the tilted type, read off
        G: Delta = -E_{P_r}[ln Z] = G'(r) and D = G(r) - r Delta.  At r = 0,
        Delta is the rho -> inf limit of Ex(rho) - 2 rho rhat0.  D carries
        an absolute rounding error of about eps r Delta, which can exceed
        D - 2 rhat0 ~ r^2 at tiny r, so D - 2 rhat0 is floored at 0.
        Delta is +0.0, not -0.0, where it is zero."""
        r_log_z = r * self.log_z
        mass = self.weights * np.exp(r_log_z)
        delta = float(0.0 - (mass @ self.log_z) / mass.sum())
        return max(float(self._g_at(r_log_z)) - r * delta, 0.0), delta


def expurgated_ex(dmc: Dmc, q: InputDist, rho: float) -> float:
    """Expurgated function Ex(rho, Q) = -rho ln sum QQ' Z(x,x')^{1/rho};
    rho = inf gives its zero-rate limit -E[ln Z], inf where some pair of
    output supports is disjoint."""
    _check_nonnegative("rho", rho)
    return _PairTable(dmc, q).ex(rho)


def cutoff_rate(dmc: Dmc, q: InputDist) -> float:
    """Cutoff rate R0(Q) = Ex(1, Q) from the pair table of (W, Q), checked
    against E0(1, Q) to 1e-10 when the table is built."""
    return _PairTable(dmc, q).r0


def critical_rate(dmc: Dmc, q: InputDist) -> float:
    """Critical rate dE0/drho at rho = 1, in closed form.

    With a_y = sum_x Q(x) sqrt(W(y|x)) and F = sum_y a_y^2 = e^{-E0(1)},
    dE0/drho(1) = -(1/F) sum_y [a_y^2 ln a_y - a_y/2 sum_x Q(x) sqrt(W) ln W],
    where sqrt(W) ln W and a^2 ln a are 0 at zero entries.
    """
    q = _input_dist(q, dmc.num_inputs, "channel input")
    root = np.sqrt(dmc.w)
    log_w = np.log(dmc.w, out=np.zeros_like(root), where=dmc.w > 0)
    a = q.q @ root
    b = q.q @ (root * log_w)
    log_a = np.log(a, out=np.zeros_like(a), where=a > 0)
    return float(-np.sum(a * a * log_a - 0.5 * a * b) / np.sum(a * a))


def _argmax_concave(f, lo, hi, xatol=1e-10):
    """Maximise a concave or quasi-concave f on [lo, hi]; returns (x, f(x)).

    A quasi-concave f has no local maximum other than the global one, which
    is all Brent's bounded search (`_fminbound` on -f) needs.  Brent never
    evaluates the endpoints itself, so f(lo) and f(hi) are compared with its
    answer.
    """
    x, neg = _fminbound(lambda x: -f(x), lo, hi, xatol)
    return max((lo, f(lo)), (hi, f(hi)), (x, -neg), key=lambda point: point[1])


def _fminbound(f, lo, hi, xatol):
    """Minimum of f on [lo, hi] by Brent's bounded search; returns (x, f(x)).

    A plain-float port of scipy 1.17's `_minimize_scalar_bounded` (Brent
    1973, *Algorithms for Minimization without Derivatives*, ch. 5): the
    same golden-section constant, sqrt(2.2e-16) relative tolerance and
    500 evaluations at most, so it takes the iterates of
    `scipy.optimize.minimize_scalar(method="bounded")` and returns its
    point.  f may be +-inf: a parabola through an infinite value fails its
    acceptance test (NaN compares false), so the step is golden, as there.
    """
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    # xf is the best point so far, nfc the second best and fulc the third
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fnfc = ffulc = float(f(xf))
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    for _ in range(499):
        if abs(xf - xm) <= tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            # the test fails where q is 0 or NaN, so the division is safe
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
                golden = False
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = float(f(x))
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf, fx


def _unit_root(f):
    """Root in [0, 1] of an f that crosses zero at most once, upward.

    The root finder of `memory.extended_exponent` (in r = 1/rho) and of
    `types_opt.z_of_rhat_direct` (in t = r/(1 + r)).
    Returns 1 when f(1) <= 0 (the root lies at or beyond 1) and 0 when
    f(0) >= 0 (for r = 1/rho: no root, rho is unbounded); `_brentq` finds
    it otherwise, handed the two end values, so f is evaluated once at
    each end.
    """
    f1 = f(1.0)
    if f1 <= 0:
        return 1.0
    f0 = f(0.0)
    if f0 >= 0:
        return 0.0
    return _brentq(f, f0, f1)


def _brentq(f, f0, f1):
    """Root in [0, 1] of f, given f(0) = f0 < 0 < f1 = f(1).

    A plain-float port of scipy's `brentq.c` (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 4) with xtol 1e-300, rtol 4 eps
    and 2000 iterations, so it takes the iterates of
    `scipy.optimize.brentq` and returns the same float; the cap lets it
    reach xtol even for roots near 1e-32, where brentq's default 100
    iterations do not.  A NaN value raises ValueError and non-convergence
    RuntimeError, as brentq does.
    """
    xpre, xcur, fpre, fcur = 0.0, 1.0, float(f0), float(f1)
    xblk = fblk = spre = scur = 0.0
    if fpre != fpre or fcur != fcur:
        raise ValueError("f is NaN at an end of [0, 1]; the root cannot be found")
    for _ in range(2000):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        good = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # an underflowed denominator gives C an inf or NaN: bisect
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            good = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if good else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise ValueError("f is NaN inside the bracket; the root cannot be found")
    raise RuntimeError("brentq failed to converge after 2000 iterations")


def check_rate(rate: float, r0: float) -> None:
    """The rate rule of every exponent route: 0 < R < R0 + RATE_TOL, so that
    a rate that rounds onto R0 is accepted; NaN fails."""
    if not 0 < rate < r0 + RATE_TOL:
        raise RateOutOfRange(f"need 0 < R < R0={r0:.6g}, got R={rate}")


def solve_rho(curve_kind: str, dmc: Dmc, q: InputDist, rate: float) -> RhoValue:
    """rho of the cex or trtc curve at one rate R (nats): the rho column of
    `exponent_curve(curve_kind, dmc, q, [R])`, under its rate rule and with
    its pair table, inf where the root does not exist."""
    if curve_kind not in ("cex", "trtc"):
        raise ValueError(f"solve_rho solves cex and trtc, got {curve_kind!r}")
    return RhoValue(exponent_curve(curve_kind, dmc, q, [rate]).points[0][2])


def exponent_curve(kind: str, dmc: Dmc, q: InputDist, rate_grid) -> ExponentCurve:
    """Evaluate one exponent curve (or its R-times variant) on a rate grid.

    cex and trtc values are Ex(rho)/R = rho G(1/rho)/R at the roots of
    `_PairTable.rho`, exact to rounding there (rho for cex, 2 rho - 1 for
    trtc).  One pair table of (W, Q) and one vectorised root solve serve
    the whole grid.  A point where the root does not exist has value inf
    and rho inf.  The grid is any one-dimensional array of rates, in any
    order and with repeats; its first rate that fails `check_rate` is the
    one named.
    """
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind {kind!r}")
    rates = np.asarray(rate_grid, dtype=float)
    if rates.ndim != 1:
        raise ValueError(f"rate grid must be one-dimensional, got shape {rates.shape}")
    base = kind.removeprefix("rtimes_")
    table = _PairTable(dmc, q)
    for rate in rates.tolist():
        check_rate(rate, table.r0)
    if base == "rtc":
        values, rhos = table.r0 / rates, [None] * rates.size
    else:
        rho = table.rho(base, rates)
        values = np.full(rates.size, np.inf)
        fin = rho < np.inf
        values[fin] = rho[fin] * (table.g(1.0 / rho[fin]) + 2 * table.rhat0) / rates[fin]
        rhos = rho.tolist()
    if kind != base:
        values = values * rates
    return ExponentCurve(kind, list(zip(rates.tolist(), values.tolist(), rhos)))


def costello_form_cex(dmc: Dmc, q: InputDist, rate: float) -> float:
    """Closed-form cex exponent ln Z / ln(2 e^{-R} - 1) for binary-input
    channels under the uniform input distribution (R in nats)."""
    if dmc.num_inputs != 2:
        raise NotBinaryInput(f"channel has {dmc.num_inputs} inputs")
    q = _input_dist(q, dmc.num_inputs, "channel input")
    if np.max(np.abs(q.q - 0.5)) > 1e-9:
        raise NotUniformQ(f"q={q.q} is not uniform")
    r0 = cutoff_rate(dmc, q)
    check_rate(rate, r0)
    z = bhattacharyya_matrix(dmc)[0, 1]
    if z >= 1.0:
        return 0.0  # useless channel: identical rows, degenerate form
    if z == 0.0:
        return np.inf  # disjoint supports: ln Z = -inf, as `exponent_curve` has it
    return np.log(z) / np.log(2.0 * np.exp(-rate) - 1.0)
