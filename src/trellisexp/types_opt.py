"""Method-of-types route to the typical trellis exponent.

Everything here works on joint distributions P(x, x') of a correct/incorrect
symbol pair: the pairwise-distance average Delta_s(P), the divergence
D(P || QxQ), the constrained minimum Z(.) in its direct (tilted-family) and
Legendre forms, the nested rate optimization, and the dominant joint type.
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
    return table.rhat0, table.mean_distance()


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
    return _z_legendre(_PairTable(dmc, q), q, rhat)


def _z_legendre(table: _PairTable, q: InputDist, rhat: float) -> float:
    """`z_of_rhat_legendre` on the pair table of (W, Q)."""
    if rhat <= table.rhat0:
        return np.inf if rhat < table.rhat0 else table.mean_distance()
    if 2 * rhat >= _diag_divergence(q):
        return 0.0  # objective has nonpositive slope at rho = 0

    def obj(u):
        if u == 1.0:
            return -np.inf
        rho = u / (1.0 - u)
        return table.ex(rho) - 2 * rho * rhat

    return max(0.0, float(_argmax_concave(obj, 0.0, 1.0)[1]))


def _tilted_type(dmc: Dmc, q: InputDist, rho: float) -> np.ndarray:
    """Tilted family member P_rho proportional to Q(x)Q(x') e^{-d_{1/2}/rho},
    with d_{1/2} = -ln Z; infinite-distance pairs carry no mass."""
    return _PairTable(dmc, q).tilted(1.0 / rho)


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
    """Nested types-form exponent inf_{rhat < R} (Z(2 rhat) + rhat)/(R - rhat).

    Z is evaluated in Legendre form.  Z is convex in rhat (a supremum of
    affine functions), so the objective is quasi-convex.  The search runs
    over the finite part [rhat0, R) of Z, so that a minimum at its edge
    rhat0 is evaluated exactly; the exponent is inf when rhat0 >= R.
    """
    table = _PairTable(dmc, q)
    check_rate(rate, table.r0)
    rhat0 = table.rhat0
    hi = rate * (1.0 - 1e-9)
    if rhat0 >= hi:
        return np.inf

    def neg_obj(rhat):
        return -(_z_legendre(table, q, rhat) + rhat) / (rate - rhat)

    return -float(_argmax_concave(neg_obj, rhat0, hi, xatol=1e-9)[1])


def dominant_joint_type(dmc: Dmc, q: InputDist, rho: float) -> DominantEvent:
    """Dominant error-event joint type P* at tilt rho, with the critical-length
    factor evaluated at the rate R for which rho = rho_trtc(R)."""
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    table = _PairTable(dmc, q)
    p = JointType(table.tilted(1.0 / rho))
    div = divergence_qq(p, q)
    delta = delta_s(p, dmc, 0.5)
    rate = table.ex(rho) / (2 * rho - 1) if rho > 0.5 else np.nan
    # span factor 1 + theta(D) with theta(D) = D / (2R - D)
    factor = 2 * rate / (2 * rate - div) if np.isfinite(rate) else np.nan
    return DominantEvent(p, rho, rate, div, delta, factor)
