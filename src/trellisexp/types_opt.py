"""Method-of-types route to the typical trellis exponent.

Everything here works on joint distributions P(x, x') of a correct/incorrect
symbol pair: the pairwise-distance average Delta_s(P), the divergence
D(P || QxQ), the constrained minimum Z(.) in its direct (tilted-family) and
Legendre forms, the rate optimization over the tilted family, and the
dominant joint type.
"""

from dataclasses import dataclass

import numpy as np

from .channels import (DimensionMismatch, Dmc, InputDist, _check_nonnegative, _distribution,
                       _input_dist, chernoff_matrix)
from .exponents import RateOutOfRange, _argmax_concave, _PairTable, _unit_root, check_rate


@dataclass(frozen=True)
class JointType:
    """Joint distribution P(x, x') on pairs of channel input symbols."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise DimensionMismatch(f"joint type must be square, got shape {p.shape}")
        object.__setattr__(self, "p", _distribution(p.ravel(), "joint type").reshape(p.shape))


@dataclass(frozen=True)
class DominantEvent:
    p_star: JointType
    rho: float
    rate: float
    divergence: float
    delta_half: float
    critical_length_factor: float


def delta_s(p: JointType, dmc: Dmc, s: float) -> float:
    """Average Chernoff distance sum_{x,x'} P(x,x') d_s(x,x'); P must be
    J x J for the J inputs of the channel (DimensionMismatch otherwise)."""
    j = dmc.num_inputs
    if p.p.shape != (j, j):
        raise DimensionMismatch(f"joint type must be {j} x {j} for the channel's {j} inputs, "
                                f"got shape {p.p.shape}")
    d = chernoff_matrix(dmc, s)
    mask = p.p > 0
    if np.any(mask & np.isinf(d)):
        return np.inf
    return float(np.sum(p.p[mask] * d[mask]))


def divergence_qq(p: JointType, q: InputDist) -> float:
    """KL divergence D(P || QxQ) in nats, with 0 ln 0 = 0."""
    q = _input_dist(q, p.p.shape[0], "channel input")
    qq = np.outer(q.q, q.q)
    mask = p.p > 0
    if np.any(mask & (qq <= 0)):
        return np.inf
    return float(np.sum(p.p[mask] * np.log(p.p[mask] / qq[mask])))


def _diag_divergence(q: InputDist) -> float:
    """Divergence of the best (minimum-D) diagonal joint type, -ln sum Q^2."""
    return -np.log(np.sum(q.q ** 2))


def z_of_rhat_legendre(dmc: Dmc, q: InputDist, rhat: float) -> float:
    """Legendre form of Z: sup_{rho >= 0} [Ex(rho, Q) - 2 rho rhat].

    Z is inf below the edge `_PairTable.rhat0`, rhat0 = -1/2 ln QxQ(Z > 0),
    and finite for every rhat >= rhat0.  With P0 = QxQ restricted to the
    pairs of Z > 0, Ex(rho) - 2 rho rhat is 2 rho (rhat0 - rhat) plus a
    bounded increasing term with limit -E_P0[ln Z], so Z equals that limit
    at rhat0 (`_PairTable.tilted_point(0)`).  Above rhat0 the objective
    is concave in rho and tends to -inf as rho -> inf, so it is maximised
    over u = rho/(1 + rho) in [0, 1] with the value -inf at u = 1: a bounded
    search with no cap on rho.  Only Ex is evaluated, so this form stays an
    independent check on `z_of_rhat_direct`.
    """
    _check_nonnegative("rhat", rhat)
    table = _PairTable(dmc, q)
    if rhat <= table.rhat0:
        return np.inf if rhat < table.rhat0 else table.tilted_point(0.0)[1]
    if 2 * rhat >= _diag_divergence(table.q):
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
    t = 1 (P_inf, whose Delta is 0).  Below the edge `_PairTable.rhat0`
    every feasible type puts mass on an infinite distance, so Z is inf; at
    and above it Z is finite, and at rhat0 the root is P_0.
    """
    _check_nonnegative("rhat", rhat)
    table = _PairTable(dmc, q)
    q = table.q
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


def dominant_joint_type(dmc: Dmc, q: InputDist, rate: float) -> DominantEvent:
    """Dominant error-event joint type P* at rate R: the tilted type P_r of
    `_PairTable.tilted` at r = 1/rho_trtc(R), with the critical-length
    factor at R.

    The factor is 1 + theta(D) = 2R/(2R - D), theta(D) = D/(2R - D).  Near
    the edge both R and D/2 approach rhat0, so 2R - D is taken from the
    edge: 2R - D = 2(R - rhat0) - e, with e = D - 2 rhat0 from
    `_PairTable.tilted_point` and 2(R - rhat0) the target the trtc root
    is solved against.  R follows the rate rule of `check_rate`, under which rho >= 1;
    where R <= rhat0 there is no trtc root and RateOutOfRange is raised.
    """
    table = _PairTable(dmc, q)
    check_rate(rate, table.r0)
    rho = float(table.rho("trtc", [rate])[0])
    if rho == np.inf:
        raise RateOutOfRange(f"R={rate} <= rhat0={table.rhat0:.12g}: no trtc root, "
                             "the exponent is unbounded")
    p = JointType(table.tilted(1.0 / rho))
    e, delta = table.tilted_point(1.0 / rho)
    factor = 2 * rate / (2 * (rate - table.rhat0) - e)
    return DominantEvent(p, rho, rate, 2 * table.rhat0 + e, delta, factor)
