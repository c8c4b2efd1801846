"""Gallager-style exponent functions and the three trellis exponent curves.

E0 is the Gallager function, Ex the expurgated function; the curves are

  rtc :  R0(Q)/R for R < R0(Q)                    (random trellis coding)
  cex :  Ex(rho_cex(R), Q)/R,  R = Ex(rho)/rho    (convolutional expurgated)
  trtc:  Ex(rho_trtc(R), Q)/R, R = Ex(rho)/(2rho-1)  (typical random trellis)

all per unit of constraint length, with rates in nats/channel-use.
"""

from dataclasses import dataclass

import numpy as np

from .channels import Dmc, InputDist, bhattacharyya_matrix

RHO_MAX = 1e6
RATE_TOL = 1e-10

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
    """Gallager function E0(rho, Q) in nats, rho >= 0."""
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
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
        z = np.minimum(bhattacharyya_matrix(dmc), 1.0)
        z[np.all(dmc.w[:, None, :] == dmc.w[None, :, :], axis=2)] = 1.0
        qq = np.outer(q.q, q.q)
        self.on = z > 0
        self.weights = qq[self.on] / qq[self.on].sum()
        self.log_z = np.log(z[self.on])
        self.rhat0 = float(-0.5 * np.log1p(-qq[~self.on].sum()))
        self.r0 = gallager_e0(dmc, q, 1.0)
        ex_one = self.ex(1.0)
        if abs(self.r0 - ex_one) > 1e-10:
            raise ArithmeticError(f"E0(1) and Ex(1) disagree: {self.r0} vs {ex_one}")

    def g(self, r):
        """G(r) - 2 rhat0, with G(r) = Ex(1/r)/(1/r) increasing from
        G(0) = 2 rhat0 to G(1) = R0."""
        return -np.log1p(np.sum(self.weights * np.expm1(r * self.log_z)))

    def ex(self, rho):
        """Ex(rho) = rho G(1/rho), with Ex(0) = 0."""
        return rho * (self.g(1.0 / rho) + 2 * self.rhat0) if rho > 0 else 0.0

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
        D - 2 rhat0 ~ r^2 at tiny r, so D - 2 rhat0 is floored at 0."""
        mass = self.weights * np.exp(r * self.log_z)
        delta = float(-np.sum(mass * self.log_z) / np.sum(mass))
        return max(float(self.g(r)) - r * delta, 0.0), delta


def expurgated_ex(dmc: Dmc, q: InputDist, rho: float) -> float:
    """Expurgated function Ex(rho, Q) = -rho ln sum QQ' Z(x,x')^{1/rho}."""
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    return _PairTable(dmc, q).ex(rho)


def expurgated_ex_limit(dmc: Dmc, q: InputDist) -> float:
    """Zero-rate expurgated exponent lim_{rho->inf} Ex(rho, Q) = -E[ln Z]."""
    table = _PairTable(dmc, q)
    return np.inf if table.rhat0 > 0 else table.tilted_point(0.0)[1]


def cutoff_rate(dmc: Dmc, q: InputDist) -> float:
    """Cutoff rate R0(Q) = E0(1, Q), checked against Ex(1, Q) to 1e-10
    when the pair table of (W, Q) is built."""
    return _PairTable(dmc, q).r0


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


def _argmax_concave(f, lo, hi=None, xatol=1e-10):
    """Maximise a concave or quasi-concave f on [lo, hi]; returns (x, f(x)).

    A quasi-concave f has no local maximum other than the global one, which
    is all Brent's bounded search needs.  Brent never evaluates the endpoints
    itself, so f(lo) and f(hi) are compared with its answer.  With hi None
    (only `memory.f_s`, whose r -> inf end has no closed form) the bracket
    doubles outward from 1 while f still increases, and the result is
    (inf, inf) once it passes RHO_MAX.
    """
    if hi is None:
        hi = 1.0
        while f(2 * hi) > f(hi):
            hi *= 2
            if hi > RHO_MAX:
                return np.inf, np.inf
        hi *= 2
    # scipy.optimize is imported at first use here, in `_unit_root` and in
    # `solve_rho`, so importing the package (and `simulate`) does not load it
    import scipy.optimize
    with np.errstate(invalid="ignore"):  # inf values: Brent falls back to golden steps
        res = scipy.optimize.minimize_scalar(lambda x: -f(x), bounds=(lo, hi),
                                             method="bounded", options={"xatol": xatol})
    return max((lo, f(lo)), (hi, f(hi)), (float(res.x), -float(res.fun)),
               key=lambda point: point[1])


def _unit_root(f):
    """Root in [0, 1] of an f that crosses zero at most once, upward.

    The one root finder of the cex/trtc solves and `memory.extended_exponent`
    (in r = 1/rho) and of `types_opt.z_of_rhat_direct` (in t = r/(1 + r)).
    Returns 1 when f(1) <= 0 (the root lies at or beyond 1) and 0 when
    f(0) >= 0 (for r = 1/rho: no root, rho is unbounded); brentq finds it
    otherwise.  f is evaluated once at each end: brentq opens with f(0) and
    f(1) and is handed the values already computed, so its iterates, and the
    root, are those of a plain call.  Its iteration cap is set so that it
    reaches xtol even for roots near 1e-32, where the default 100 iterations
    do not.
    """
    f1 = f(1.0)
    if f1 <= 0:
        return 1.0
    f0 = f(0.0)
    if f0 >= 0:
        return 0.0
    import scipy.optimize
    return scipy.optimize.brentq(lambda r: f0 if r == 0.0 else f1 if r == 1.0 else f(r),
                                 0.0, 1.0, xtol=1e-300, rtol=4 * np.finfo(float).eps,
                                 maxiter=2000)


def check_rate(rate: float, r0: float) -> None:
    """The rate rule of every exponent route: 0 < R < R0 + RATE_TOL, so that
    a rate that rounds onto R0 is accepted; NaN fails."""
    if not 0 < rate < r0 + RATE_TOL:
        raise RateOutOfRange(f"need 0 < R < R0={r0:.6g}, got R={rate}")


def solve_rho(curve_kind: str, dmc: Dmc, q: InputDist, rate: float) -> RhoValue:
    """Solve the defining rho-equation of a curve at rate R (nats).

    cex : R = Ex(rho)/rho, rho >= 1
    trtc: R = Ex(rho)/(2 rho - 1), rho >= 1
    rtc : R = E0(rho)/rho for R > R0(Q), rho in (0, 1)

    cex and trtc are solved in r = 1/rho on [0, 1] by `_unit_root`.  With
    G(r) = -ln sum_{Z > 0} QQ' Z^r, increasing from G(0) = 2 rhat0
    (rhat0 = -1/2 ln QxQ(Z > 0)) to G(1) = R0, Ex(rho) = G(r)/r, so cex
    reads G(r) = R and trtc reads G(r) = (2 - r) R.  Both are solved from
    the edge, on g = G - 2 rhat0 (`_PairTable.g`): cex as g(r) = R - 2 rhat0
    and trtc as g(r) = (2 - r)(R - rhat0) - r rhat0, so that no rate near
    the edge is cancelled against 2 rhat0.
    The trtc root exists iff R > rhat0 and the cex root iff R > 2 rhat0;
    otherwise rho = inf (the exponent is unbounded).
    """
    if curve_kind in ("cex", "trtc"):
        return _solve_rho(curve_kind, _PairTable(dmc, q), rate)
    if curve_kind != "rtc":
        raise ValueError(f"unknown curve kind {curve_kind!r}")
    r0 = cutoff_rate(dmc, q)
    if rate <= r0:
        raise RateOutOfRange(f"rtc rho branch needs R > R0={r0:.6g}")
    g = lambda rho: gallager_e0(dmc, q, rho) / rho - rate
    if g(1e-12) < 0:
        raise RateOutOfRange("R exceeds the mutual information of (Q, W)")
    import scipy.optimize
    return RhoValue(scipy.optimize.brentq(g, 1e-12, 1.0, xtol=1e-300,
                                          rtol=4 * np.finfo(float).eps))


def _solve_rho(curve_kind: str, table: _PairTable, rate: float) -> RhoValue:
    """`solve_rho` for cex and trtc on the pair table of (W, Q)."""
    check_rate(rate, table.r0)
    if curve_kind == "cex":
        f = lambda r: table.g(r) - (rate - 2 * table.rhat0)
    else:
        gap = rate - table.rhat0
        f = lambda r: table.g(r) - ((2 - r) * gap - r * table.rhat0)
    r = _unit_root(f)
    return RhoValue(1.0 / r if r > 0 else np.inf)


def exponent_curve(kind: str, dmc: Dmc, q: InputDist, rate_grid) -> ExponentCurve:
    """Evaluate one exponent curve (or its R-times variant) on a rate grid.

    cex and trtc values are Ex(rho)/R = G(1/rho)/(R/rho) at the root of
    `solve_rho`, exact to rounding there (rho for cex, 2 rho - 1 for trtc).
    One pair table of (W, Q) serves every rate of the grid.
    A point where the root does not exist has value inf and rho inf.
    """
    if kind not in CURVE_KINDS:
        raise ValueError(f"unknown curve kind {kind!r}")
    rates = np.asarray(rate_grid, dtype=float)
    if rates.size > 1 and np.any(np.diff(rates) <= 0):
        raise ValueError("rate grid must be strictly increasing")
    base = kind.removeprefix("rtimes_")
    times_r = kind.startswith("rtimes_")
    table = _PairTable(dmc, q)
    r0 = table.r0
    points = []
    for rate in rates:
        check_rate(rate, r0)
        if base == "rtc":
            value, rho = r0 / rate, None
        else:
            rho = _solve_rho(base, table, rate).rho
            value = table.ex(rho) / rate if rho < np.inf else np.inf
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
    check_rate(rate, r0)
    z = bhattacharyya_matrix(dmc)[0, 1]
    if z >= 1.0:
        return 0.0  # useless channel: identical rows, degenerate form
    return np.log(z) / np.log(2.0 * np.exp(-rate) - 1.0)
