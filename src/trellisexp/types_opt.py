"""Method-of-types route to the typical trellis exponent.

Everything here works on joint distributions P(x, x') of a correct/incorrect
symbol pair: the pairwise-distance average Delta_s(P), the divergence
D(P || QxQ), the constrained minimum Z(.) in its direct (tilted-family) and
Legendre forms, the rate optimization over the tilted family, and the
dominant joint type.
"""

from dataclasses import dataclass

import numpy as np

from .channels import PROB_ATOL, Dmc, InputDist, chernoff_matrix
from .exponents import _argmax_concave, _PairTable, _unit_root, check_rate


@dataclass(frozen=True)
class JointType:
    """Joint distribution P(x, x') on pairs of channel input symbols."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"joint type must be square, got shape {p.shape}")
        if np.any(p < 0):
            raise ValueError("negative joint-type entry")
        if not abs(p.sum() - 1.0) <= PROB_ATOL:
            raise ValueError(f"joint type sums to {p.sum()!r}")
        p = p / p.sum()
        p.flags.writeable = False
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class DominantEvent:
    p_star: JointType
    rho: float
    rate: float
    divergence: float
    delta_half: float
    critical_length_factor: float


def delta_s(p: JointType, dmc: Dmc, s: float) -> float:
    """Average Chernoff distance sum_{x,x'} P(x,x') d_s(x,x')."""
    d = chernoff_matrix(dmc, s)
    mask = p.p > 0
    if np.any(mask & np.isinf(d)):
        return np.inf
    return float(np.sum(p.p[mask] * d[mask]))


def delta_max(p: JointType, dmc: Dmc) -> tuple[float, float]:
    """Maximize Delta_s(P) over s in [0, 1]; returns (value, argmax s).

    Delta_s is concave in s, so one bounded search suffices.  For a P that
    yields a constant zero (e.g. diagonal types) the reported argmax is the
    tie-break s = 1/2.
    """
    # disjoint-support pairs with positive mass make the max infinite
    if np.isinf(delta_s(p, dmc, 0.5)):
        return np.inf, 0.5
    s, value = _argmax_concave(lambda s: delta_s(p, dmc, s), 0.0, 1.0)
    if value <= 1e-15:
        return max(value, 0.0), 0.5
    return float(value), float(s)


def divergence_qq(p: JointType, q: InputDist) -> float:
    """KL divergence D(P || QxQ) in nats, with 0 ln 0 = 0."""
    qq = np.outer(q.q, q.q)
    mask = p.p > 0
    if np.any(mask & (qq <= 0)):
        return np.inf
    return float(np.sum(p.p[mask] * np.log(p.p[mask] / qq[mask])))


def _diag_divergence(q: InputDist) -> float:
    """Divergence of the best (minimum-D) diagonal joint type, -ln sum Q^2."""
    return -np.log(np.sum(q.q ** 2))


def _legendre_edge(dmc: Dmc, q: InputDist) -> tuple[float, float]:
    """Left end (rhat0, Z(rhat0)) of the finite part of Z.

    With P0 = QxQ restricted to the pairs whose output supports overlap
    (Bhattacharyya Z > 0), Ex(rho) - 2 rho rhat is 2 rho (rhat0 - rhat)
    plus a bounded increasing term with limit -E_P0[ln Z], where
    rhat0 = -1/2 ln QxQ(Z > 0).  So Z is inf below rhat0 and equals that
    limit at rhat0; rhat0 = 0 when every pair of supports overlaps.
    """
    table = _PairTable(dmc, q)
    return table.rhat0, table.tilted_point(0.0)[1]


def z_of_rhat_legendre(dmc: Dmc, q: InputDist, rhat: float) -> float:
    """Legendre form of Z: sup_{rho >= 0} [Ex(rho, Q) - 2 rho rhat].

    Z is inf below the edge rhat0 of `_legendre_edge`, equals its limit
    there, and is finite for every rhat >= rhat0.  Above rhat0 the objective
    is concave in rho and tends to -inf as rho -> inf, so it is maximised
    over u = rho/(1 + rho) in [0, 1] with the value -inf at u = 1: a bounded
    search with no cap on rho.  Only Ex is evaluated, so this form stays an
    independent check on `z_of_rhat_direct`.
    """
    if rhat < 0:
        raise ValueError(f"rhat must be >= 0, got {rhat}")
    table = _PairTable(dmc, q)
    if rhat <= table.rhat0:
        return np.inf if rhat < table.rhat0 else table.tilted_point(0.0)[1]
    if 2 * rhat >= _diag_divergence(q):
        return 0.0  # objective has nonpositive slope at rho = 0

    def obj(u):
        if u == 1.0:
            return -np.inf
        rho = u / (1.0 - u)
        return table.ex(rho) - 2 * rho * rhat

    return max(0.0, float(_argmax_concave(obj, 0.0, 1.0)[1]))


def z_of_rhat_direct(dmc: Dmc, q: InputDist, rhat: float) -> tuple[float, JointType]:
    """Direct form of Z: min Delta_{1/2}(P) s.t. D(P || QxQ) <= 2 rhat.

    Solved through the tilted family P_r of `_PairTable.tilted` (P_r
    proportional to QQ' Z^r), whose divergence D(P_r) = G(r) - r G'(r)
    increases in r (dD/dr = -r G''(r) >= 0, G concave): the root of
    D(P_r || QxQ) = 2 rhat makes the constraint active, unless the
    zero-Delta diagonal type is feasible.  The root is found by `_unit_root`
    in t = r/(1 + r) on [0, 1], with no cap: D runs from 2 rhat0 at t = 0
    (P_0, QxQ restricted to the finite-distance pairs) to -ln QxQ(Z = 1) at
    t = 1 (P_inf, whose Delta is 0).  Below the edge rhat0 of
    `_legendre_edge` every feasible type puts mass on an infinite distance,
    so Z is inf; at and above it Z is finite, and at rhat0 the root is P_0.
    """
    if rhat < 0:
        raise ValueError(f"rhat must be >= 0, got {rhat}")
    table = _PairTable(dmc, q)
    if rhat < table.rhat0:
        return np.inf, JointType(np.outer(q.q, q.q))
    if 2 * rhat >= _diag_divergence(q) - 1e-13:
        # constraint slack: the zero-Delta diagonal type is feasible
        diag = np.diag(q.q ** 2 / np.sum(q.q ** 2))
        return 0.0, JointType(diag)

    def tilted(t):
        return JointType(table.tilted(t / (1.0 - t) if t < 1.0 else np.inf))

    p = tilted(_unit_root(lambda t: divergence_qq(tilted(t), q) - 2 * rhat))
    return delta_s(p, dmc, 0.5), p


def csiszar_exponent(dmc: Dmc, q: InputDist, rate: float) -> float:
    """Types-form exponent inf_{rhat < R} (Z(rhat) + rhat)/(R - rhat).

    The minimiser of Z(rhat) lies on the tilted family P_r of
    `_PairTable.tilted` for every rhat, so the infimum is one search over r
    of (Delta(P_r) + D(P_r)/2)/(R - D(P_r)/2), with (D, Delta) from
    `_PairTable.tilted_point`.  D increases in r from 2 rhat0, and the
    exponent is inf exactly when R <= rhat0, the rule of trtc.  Otherwise
    the objective is quasi-convex in r with its minimum at the trtc root
    r* = 1/rho_trtc, where G(r*) = (2 - r*) R.  G is concave with
    G(0) = 2 rhat0 and G(1) = R0, so it lies above its chord,
    G(r) >= 2 rhat0 + r (R0 - 2 rhat0), and at r* that gives
    r* <= 2 (R - rhat0)/(R0 - 2 rhat0 + R), whose denominator is at least
    R > 0.  The search runs over [0, r_hi], r_hi the smaller of that bound
    and 1, with no root solved for the rate edge; where D(P_r) >= 2R inside
    the bracket the objective is +inf.  The absolute tolerance in r is far
    below any minimiser, so Brent's relative tolerance governs at every
    rate.  Both D and R are measured from the edge, with e = D - 2 rhat0
    and gap = R - rhat0, so the objective reads
    (Delta + rhat0 + e/2)/(gap - e/2) and keeps full accuracy as R -> rhat0.
    """
    table = _PairTable(dmc, q)
    check_rate(rate, table.r0)
    gap = rate - table.rhat0
    if gap <= 0:
        return np.inf
    r_hi = min(1.0, 2 * gap / (table.r0 - 2 * table.rhat0 + rate))

    def neg_obj(r):
        e, delta = table.tilted_point(r)
        return -(delta + table.rhat0 + e / 2) / (gap - e / 2) if e < 2 * gap else -np.inf

    return -float(_argmax_concave(neg_obj, 0.0, r_hi, xatol=1e-300)[1])


def dominant_joint_type(dmc: Dmc, q: InputDist, rho: float) -> DominantEvent:
    """Dominant error-event joint type P* at tilt rho, with the critical-length
    factor evaluated at the rate R for which rho = rho_trtc(R).

    The factor is 1 + theta(D) = 2R/(2R - D), theta(D) = D/(2R - D).  Near
    the edge both R and D/2 approach rhat0, so 2R - D is taken from the
    edge: 2R - D = 2(R - rhat0) - e, with e = D - 2 rhat0 and
    R - rhat0 = (rho g(1/rho) + rhat0)/(2 rho - 1), g = `_PairTable.g`,
    a sum of nonnegative terms.  Where rhat0 = 0 this is the plain form.
    """
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    table = _PairTable(dmc, q)
    p = JointType(table.tilted(1.0 / rho))
    e, delta = table.tilted_point(1.0 / rho)
    div = 2 * table.rhat0 + e
    if rho > 0.5:
        rate = table.ex(rho) / (2 * rho - 1)
        gap = (rho * table.g(1.0 / rho) + table.rhat0) / (2 * rho - 1)
        factor = 2 * rate / (2 * gap - e)
    else:
        rate = factor = np.nan
    return DominantEvent(p, rho, rate, div, delta, factor)
