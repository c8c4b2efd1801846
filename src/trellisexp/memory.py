"""Channels with one-step input memory and mismatched metrics.

The pairwise distance generalizes to d_s(x, x-; x', x-') and the expurgated
generator becomes rho * G_s(1/rho) with G_s(r) = -ln lambda_s(r), lambda_s(r)
the Perron-Frobenius eigenvalue of the J^2 x J^2 tilted pair-chain matrix.
Channels remembering p > 1 past inputs are handled by lifting to an alphabet
of size J^p with a sparse consistency mask.
"""

from dataclasses import dataclass

import numpy as np

from .channels import _check_finite_nonnegative, _distribution, _input_dist, _metric
from .exponents import _argmax_concave, _unit_root, check_rate

S_MAX = 8.0  # upper end of the search over the Chernoff parameter s


class MetricZeroInRatio(ArithmeticError):
    pass


@dataclass(frozen=True)
class MarkovChannel:
    """Channel W(y | x, x_prev) with an optional mismatched metric W~.

    `w` has shape (J, J, Y) indexed [x, x_prev, y].  For lifted channels,
    `allowed[x, x_prev]` masks inconsistent symbol transitions and
    `newest[x]` maps a lifted symbol to the base-alphabet symbol it reveals
    (the component that carries the Q-weight in the pair chain).  An
    `allowed` that is not (J, J), or a `newest` that is not (J,) or has a
    negative entry, raises ValueError.
    """

    w: np.ndarray
    w_tilde: np.ndarray = None
    allowed: np.ndarray = None
    newest: np.ndarray = None

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 3 or w.shape[0] != w.shape[1]:
            raise ValueError(f"w must have shape (J, J, Y), got {w.shape}")
        j = w.shape[0]
        allowed = np.ones((j, j), bool) if self.allowed is None else np.array(self.allowed, bool)
        if allowed.shape != (j, j):
            raise ValueError(f"allowed must have shape ({j}, {j}), got {allowed.shape}")
        w = _distribution(w, "w", allowed)
        wt = w if self.w_tilde is None else _metric(self.w_tilde, "w_tilde")
        if wt.shape != w.shape:
            raise ValueError("w_tilde shape differs from w")
        newest = np.arange(j) if self.newest is None else np.array(self.newest, int)
        if newest.shape != (j,) or np.any(newest < 0):
            raise ValueError(f"newest must map each of the {j} symbols to a base symbol "
                             f">= 0, got {newest.tolist()}")
        for name, arr in (("w", w), ("w_tilde", wt), ("allowed", allowed), ("newest", newest)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def num_symbols(self):
        return self.w.shape[0]

    @property
    def matched(self):
        return self.w_tilde is self.w or np.array_equal(self.w_tilde, self.w)


def memoryless_lift(dmc_w) -> MarkovChannel:
    """Embed a memoryless channel matrix W(y|x) as a MarkovChannel."""
    w = np.asarray(getattr(dmc_w, "w", dmc_w), dtype=float)
    if w.ndim != 2:
        raise ValueError(f"w must have shape (J, Y), got {w.shape}")
    j = w.shape[0]
    return MarkovChannel(np.broadcast_to(w[:, None, :], (j, j, w.shape[1])))


def _distance_tensor(ch: MarkovChannel, s: float) -> np.ndarray:
    """d_s for all (x, xm, x', xm'), shape (J, J, J, J); s = inf raises
    ValueError, since W~^{-s} and W~^s would meet there as inf * 0."""
    _check_finite_nonnegative("s", s)
    w = ch.w          # (x, xm, y)
    wt = ch.w_tilde
    support = w > 0
    if s > 0:
        bad = support & (wt <= 0)
        if np.any(bad[ch.allowed]):
            raise MetricZeroInRatio("metric vanishes on the channel support")
    safe_wt = np.where(support, np.where(wt > 0, wt, 1.0), 1.0)
    # base[x, xm, y] = W / W~^s ; tilt[x', xm', y] = W~^s
    base = np.where(support, w * safe_wt ** (-s), 0.0)
    tilt = np.where(wt > 0, wt, 0.0) ** s
    total = np.einsum("aby,cdy->abcd", base, tilt)
    with np.errstate(divide="ignore"):
        return -np.log(total)


class _PairChain:
    """The tilted pair chain of one (channel, Q, s).

    A_s(r) has rows (x, x'), columns (x_prev, x_prev') and entries
    Q Q' e^{-r d_s} on the allowed transition pairs; G_s(r) = -ln lambda_s(r)
    is concave in r and in s (Kingman's convexity of the log spectral
    radius).  The s-dependent distances and the masked QQ' weights, which
    are also 0 on pairs at distance +inf, are built once; `matrix(r)` is
    A_s(r) and `g(r)` is G_s(r).  `q` is the input distribution over the
    base alphabet, one probability per base symbol; lifted symbols are
    weighted by the Q-probability of their newest component.
    """

    def __init__(self, ch: MarkovChannel, q, s: float):
        qn = _input_dist(q, ch.newest.max() + 1, "base symbol").q[ch.newest]
        n = ch.num_symbols ** 2
        d = np.transpose(_distance_tensor(ch, s), (0, 2, 1, 3)).reshape(n, n)
        # a pair at distance +inf carries weight 0, also at r = 0: A_s(0) is
        # the limit r -> 0+
        inf_d = np.isinf(d) & (d > 0)
        self.d = np.where(inf_d, 0.0, d)
        mask = (ch.allowed[:, None, :, None] & ch.allowed[None, :, None, :]).reshape(n, n)
        self.weights = np.where(mask & ~inf_d, np.outer(qn, qn).reshape(n, 1), 0.0)

    def matrix(self, r: float) -> np.ndarray:
        _check_finite_nonnegative("r", r)  # r = inf would form 0 * inf at d = 0
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf where d = -inf
            return self.weights * np.exp(np.clip(-r * self.d, -745.0, 700.0))

    def g(self, r: float) -> float:
        lam = perron_frobenius(self.matrix(r))
        return -np.log(lam) if lam > 0 else np.inf


def build_tilted(ch: MarkovChannel, q, s: float, r: float) -> np.ndarray:
    """Tilted pair-chain matrix A_s(r), (J^2, J^2), with entries Q Q' e^{-r d_s},
    masked: rows (x, x'), columns (x_prev, x_prev')."""
    return _PairChain(ch, q, s).matrix(r)


def perron_frobenius(a: np.ndarray) -> float:
    """Spectral radius of a nonnegative square matrix (its Perron root),
    from one dense eigenvalue solve; periodic and reducible masks are fine."""
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def g_s(ch: MarkovChannel, q, s: float, r: float) -> float:
    """Rate-function generator G_s(r) = -ln lambda_s(r) in nats."""
    return _PairChain(ch, q, s).g(r)


def extended_cutoff(ch: MarkovChannel, q) -> float:
    """Extended cutoff rate sup_{s >= 0} G_s(1), concave in s, over [0, S_MAX]."""
    return float(_argmax_concave(lambda s: _PairChain(ch, q, s).g(1.0), 0.0, S_MAX,
                                 xatol=1e-8)[1])


def extended_exponent(ch: MarkovChannel, q, rate: float):
    """Typical-code exponent bound sup_{s >= 0} rho_{R,s} G_s(1/rho_{R,s}) / R.

    Returns (value, argmax s, rho at the argmax).  {s : rho_{R,s} >= t} is
    an interval, so the objective is quasi-concave in s and one bounded
    search over [0, S_MAX] finds its maximum; a boundary-active argmax
    (s == S_MAX) is reported as-is.  The root is solved in r = 1/rho on
    [0, 1] by `_unit_root`: G_s(r) = (2 - r) R, value G_s(r)/(r R).  Where
    no root rho >= 1 exists the objective takes its continuous extension
    G_s(1)/R (rho = 1); it is inf exactly when G_s(0) >= 2R (no root).
    Each s's value is read off the equation its root solves, so no s costs
    an eigenvalue solve beyond its root search: (2 - r)/r = 2 rho - 1 at an
    interior root, G_s(1)/R (at most 1) where the root clamps at r = 1,
    with G_s(1) solved once for this and for the root's f(1), and inf at
    r = 0.  rho is read off the maximised value, not solved again at s*:
    rho = max(1, (1 + value)/2), which is also inf where the value is.
    The rate rule R < R0_ext (`extended_cutoff`) is read off the same
    search: R >= R0_ext clamps every s at r = 1, so the maximum is
    max_s G_s(1)/R = R0_ext/R <= 1, while R < R0_ext gives a maximum
    above 1.  A value of at most 1 is therefore checked as R0_ext/R.
    """
    check_rate(rate, np.inf)  # sign and NaN, before any search

    def value_at(s):
        # rho G_s(1/rho) is the perspective of a concave function, so
        # G_s(r) - (2 - r) R = [rho G_s(1/rho) - (2 rho - 1) R] / rho crosses
        # zero at most once on (0, 1], upward
        g = _PairChain(ch, q, s).g
        g1 = g(1.0)  # f(1) of the root and the value where the root clamps
        r = _unit_root(lambda r: (g1 if r == 1.0 else g(r)) - (2 - r) * rate)
        return g1 / rate if r == 1 else (2 - r) / r if r > 0 else np.inf

    s_star, best = _argmax_concave(value_at, 0.0, S_MAX, xatol=1e-6)
    if best <= 1:
        check_rate(rate, best * rate)
    return float(best), float(s_star), max(1.0, (1.0 + float(best)) / 2)


def lift_memory(w, p: int, w_tilde=None) -> MarkovChannel:
    """Lift a channel with p past inputs to an order-1 MarkovChannel.

    `w` is indexed [x_t, x_{t-1}, ..., x_{t-p}, y] (newest first).  Lifted
    symbols are p-tuples (x_t, ..., x_{t-p+1}) encoded newest-first in base
    J; a transition xbar_prev -> xbar is allowed iff the tuples overlap
    consistently, and only the newest raw component carries Q-weight.
    """
    w = np.asarray(w, dtype=float)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if w.ndim != p + 2:
        raise ValueError(f"w must have {p + 2} axes for p={p}, got {w.ndim}")
    j = w.shape[0]
    if w.shape[:-1] != (j,) * (p + 1):
        raise ValueError(f"inconsistent input axes in shape {w.shape}")
    wt = None if w_tilde is None else np.asarray(w_tilde, dtype=float)
    digits = np.stack(np.unravel_index(np.arange(j ** p), (j,) * p), axis=1)
    allowed = np.all(digits[:, None, 1:] == digits[None, :, :-1], axis=2)
    # [cur, prev] reads w at the raw inputs (cur's p digits, prev's oldest)
    raw = (*digits.T[:, :, None], digits[None, :, -1])
    return MarkovChannel(w[raw], w_tilde=None if wt is None else wt[raw],
                         allowed=allowed, newest=digits[:, 0])
