"""Channels with one-step input memory and mismatched metrics.

The pairwise distance generalizes to d_s(x, x-; x', x-') and the expurgated
generator becomes rho * G_s(1/rho) with G_s(r) = -ln lambda_s(r), lambda_s(r)
the Perron-Frobenius eigenvalue of the J^2 x J^2 tilted pair-chain matrix.
Channels remembering p > 1 past inputs are handled by lifting to an alphabet
of size J^p with a sparse consistency mask.
"""

import math
import numbers
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
        wt = w if self.w_tilde is None else _metric(self.w_tilde, "w_tilde", w.shape)
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


def memoryless_lift(dmc_w, w_tilde=None) -> MarkovChannel:
    """Embed a memoryless channel matrix W(y|x), and its decoding metric
    W~(y|x) if one is given, as a MarkovChannel.  `w_tilde` is read by
    the metric rule, `channels._metric`, at the shape of W."""
    w = np.asarray(getattr(dmc_w, "w", dmc_w), dtype=float)
    if w.ndim != 2:
        raise ValueError(f"w must have shape (J, Y), got {w.shape}")
    wt = None if w_tilde is None else _metric(getattr(w_tilde, "w", w_tilde), "w_tilde", w.shape)
    shape = (w.shape[0], *w.shape)
    return MarkovChannel(np.broadcast_to(w[:, None, :], shape),
                         w_tilde=None if wt is None else np.broadcast_to(wt[:, None, :], shape))


class _Distances:
    """d_s(x, x-; x', x-') of one channel, for every s, as a (J^2, J^2)
    matrix with rows (x, x') and columns (x_prev, x_prev'), the layout of
    the pair chain.

    d_s = -ln sum_y W(y|x,x-) [W~(y|x',x-')/W~(y|x,x-)]^s over the support
    of W(y|x,x-).  What does not depend on s is built once: W, the metric
    W~ with 1 off that support (where W is 0), and the `MetricZeroInRatio`
    verdict, the same for every s > 0.  Pairs of allowed cells whose metric
    rows are equal are at distance exactly 0, where the formula leaves a
    rounding residue.
    """

    def __init__(self, ch: MarkovChannel):
        w, wt, allowed = ch.w, ch.w_tilde, ch.allowed
        self.n = ch.num_symbols ** 2
        support = w > 0
        self.zero_in_ratio = bool(np.any((support & (wt <= 0))[allowed]))
        self.w, self.wt = w, wt
        self.wt_on_support = np.where(support & (wt > 0), wt, 1.0)
        equal = (np.all(wt[:, :, None, None] == wt[None, None], axis=-1)
                 & allowed[:, :, None, None] & allowed[None, None])
        self.equal = np.transpose(equal, (0, 2, 1, 3)).reshape(self.n, self.n)

    def __call__(self, s: float) -> np.ndarray:
        """d_s; s = inf raises ValueError, since W~^{-s} and W~^s would
        meet there as inf * 0."""
        _check_finite_nonnegative("s", s)
        if s > 0 and self.zero_in_ratio:
            raise MetricZeroInRatio("metric vanishes on the channel support")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # [x, xm, y] = W / W~^s times [x', xm', y] = W~^s, summed over y
            total = np.einsum("aby,cdy->acbd", self.w * self.wt_on_support ** -s,
                              self.wt ** s).reshape(self.n, self.n)
            d = -np.log(total)
            # where a power overflowed or the sum left the normal range, take
            # the log of the same sum by log-sum-exp over y (ln 0 = -inf;
            # a top of -inf, an empty sum, is held finite so that its log
            # stays -inf)
            lost = ~((total >= np.finfo(float).tiny) & (total < np.inf))
            if lost.any():
                log_wt_s = s * np.log(self.wt) if s > 0 else np.zeros_like(self.wt)
                terms = ((np.log(self.w) - s * np.log(self.wt_on_support))[:, :, None, None]
                         + log_wt_s[None, None])  # [x, xm, x', xm', y]
                top = np.maximum(terms.max(axis=-1), -np.finfo(float).max)
                log_total = top + np.log(np.exp(terms - top[..., None]).sum(axis=-1))
                d[lost] = -log_total.transpose(0, 2, 1, 3).reshape(self.n, self.n)[lost]
        d[self.equal] = 0.0
        return d


class _PairChain:
    """The tilted pair chains of one (channel, Q), one for each s.

    A_s(r) has rows (x, x'), columns (x_prev, x_prev') and entries
    Q Q' e^{-r d_s} on the allowed transition pairs; G_s(r) = -ln lambda_s(r)
    is concave in r and in s (Kingman's convexity of the log spectral
    radius).  q is read and the masked QQ' weights and the distance
    builder are made once, for every s of one call.  `q` is the input
    distribution over the base alphabet, one probability per base symbol;
    lifted symbols are weighted by the Q-probability of their newest
    component.
    """

    def __init__(self, ch: MarkovChannel, q):
        qn = _input_dist(q, ch.newest.max() + 1, "base symbol").q[ch.newest]
        self.distances = _Distances(ch)
        n = self.distances.n
        mask = (ch.allowed[:, None, :, None] & ch.allowed[None, :, None, :]).reshape(n, n)
        self.qq = np.where(mask, np.outer(qn, qn).reshape(n, 1), 0.0)

    def tilt(self, s: float):
        """(weights, -d_s, top), with A_s(r) = weights e^{-r d_s}.  On the
        pairs at distance +inf the weight is 0, also at r = 0 (A_s(0) is the
        limit r -> 0+), and -d_s is 0 wherever the weight is.  top is the
        largest -d_s, and 0 where none is positive, so r top is the largest
        exponent of A_s(r) for every r >= 0, and 0 where d_s >= 0, as on a
        matched channel at s = 1/2."""
        d = self.distances(s)
        weights = np.where(d == np.inf, 0.0, self.qq)
        neg_d = np.where(weights > 0, -d, 0.0)
        return weights, neg_d, float(neg_d.max(initial=0.0))

    def matrix(self, s: float, r: float) -> np.ndarray:
        """A_s(r) for any finite r >= 0; an entry beyond the float range is
        inf."""
        weights, neg_d, _top = self.tilt(s)
        _check_finite_nonnegative("r", r)  # r = inf would form 0 * inf at d = 0
        with np.errstate(over="ignore"):
            return _tilted(weights, neg_d, r)

    def generator(self, s: float):
        """G_s as a function of r >= 0: one exp, one eigenvalue solve and
        one log per r, with no check of r.  The eigenvalue is solved on
        A_s(r) e^{-r top}, whose entries are at most QQ', so that no exp
        overflows: G_s(r) = -ln lambda(A_s(r) e^{-r top}) - r top."""
        weights, neg_d, top = self.tilt(s)
        shifted = neg_d - top
        return lambda r: _minus_log(perron_frobenius(_tilted(weights, shifted, r))) - r * top


def _tilted(weights: np.ndarray, neg_d: np.ndarray, r: float) -> np.ndarray:
    """A_s(r) = weights e^{-r d_s}, or its shift by e^{-r top}."""
    return weights * np.exp(r * neg_d)


def _minus_log(lam: float) -> float:
    """-ln lambda, inf at lambda = 0; +0.0, not -0.0, at lambda = 1."""
    return 0.0 - math.log(lam) if lam > 0 else math.inf


def build_tilted(ch: MarkovChannel, q, s: float, r: float) -> np.ndarray:
    """Tilted pair-chain matrix A_s(r), (J^2, J^2), with entries Q Q' e^{-r d_s},
    masked: rows (x, x'), columns (x_prev, x_prev')."""
    return _PairChain(ch, q).matrix(s, r)


def perron_frobenius(a: np.ndarray) -> float:
    """Spectral radius of a nonnegative square matrix (its Perron root),
    from one dense eigenvalue solve; periodic and reducible masks are fine."""
    return float(np.abs(np.linalg.eigvals(a)).max())


def g_s(ch: MarkovChannel, q, s: float, r: float) -> float:
    """Rate-function generator G_s(r) = -ln lambda_s(r) in nats."""
    g = _PairChain(ch, q).generator(s)
    _check_finite_nonnegative("r", r)
    return g(r)


def _sup_over_s(ch: MarkovChannel, f, xatol: float):
    """(s*, f(s*)) for the sup over s >= 0 of an f that rises with G_s.

    On a matched channel s* = 1/2, with one evaluation of f.  Swapping the
    pair order is a permutation similarity of A_s(r) to A_{1-s}(r), so
    G_s = G_{1-s} on (0, 1); G_s(r) is concave in s (Kingman), so
    G_{1/2}(r) >= G_s(r) for every s >= 0 and every r.  Otherwise a
    bounded search over [0, S_MAX] finds the maximum of the concave or
    quasi-concave f, and a boundary-active argmax (s == S_MAX) is
    reported as-is.
    """
    if ch.matched:
        return 0.5, f(0.5)
    return _argmax_concave(f, 0.0, S_MAX, xatol)


def extended_cutoff(ch: MarkovChannel, q) -> float:
    """Extended cutoff rate sup_{s >= 0} G_s(1), concave in s: G_{1/2}(1)
    on a matched channel, else the maximum over [0, S_MAX]."""
    chain = _PairChain(ch, q)
    return float(_sup_over_s(ch, lambda s: chain.generator(s)(1.0), xatol=1e-8)[1])


def extended_exponent(ch: MarkovChannel, q, rate: float):
    """Typical-code exponent bound sup_{s >= 0} rho_{R,s} G_s(1/rho_{R,s}) / R.

    Returns (value, argmax s, rho at the argmax).  {s : rho_{R,s} >= t} is
    an interval, so the objective is quasi-concave in s, and it rises with
    G_s: a larger G_s(r) gives a smaller root r and so a larger value
    (2 - r)/r.  So `_sup_over_s` applies: s* is exactly 1/2 on a matched
    channel, with one root search, and the maximum of one bounded search
    over [0, S_MAX] otherwise.  The root is solved in r = 1/rho on
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
    chain = _PairChain(ch, q)

    def value_at(s):
        # rho G_s(1/rho) is the perspective of a concave function, so
        # G_s(r) - (2 - r) R = [rho G_s(1/rho) - (2 rho - 1) R] / rho crosses
        # zero at most once on (0, 1], upward
        g = chain.generator(s)
        g1 = g(1.0)  # f(1) of the root and the value where the root clamps
        r = _unit_root(lambda r: (g1 if r == 1.0 else g(r)) - (2 - r) * rate)
        return g1 / rate if r == 1 else (2 - r) / r if r > 0 else np.inf

    s_star, best = _sup_over_s(ch, value_at, xatol=1e-300)
    if best <= 1:
        check_rate(rate, best * rate)
    return float(best), float(s_star), max(1.0, (1.0 + float(best)) / 2)


def lift_memory(w, p: int, w_tilde=None) -> MarkovChannel:
    """Lift a channel with p past inputs to an order-1 MarkovChannel.

    `w` is indexed [x_t, x_{t-1}, ..., x_{t-p}, y] (newest first).  Lifted
    symbols are p-tuples (x_t, ..., x_{t-p+1}) encoded newest-first in base
    J; a transition xbar_prev -> xbar is allowed iff the tuples overlap
    consistently, and only the newest raw component carries Q-weight.
    `w_tilde` is read by the metric rule, `channels._metric`, at the
    shape of `w`.
    """
    if not isinstance(p, numbers.Integral):
        raise ValueError(f"p must be an integer, got {p!r}")
    w = np.asarray(w, dtype=float)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if w.ndim != p + 2:
        raise ValueError(f"w must have {p + 2} axes for p={p}, got {w.ndim}")
    j = w.shape[0]
    if w.shape[:-1] != (j,) * (p + 1):
        raise ValueError(f"inconsistent input axes in shape {w.shape}")
    wt = None if w_tilde is None else _metric(w_tilde, "w_tilde", w.shape)
    digits = np.stack(np.unravel_index(np.arange(j ** p), (j,) * p), axis=1)
    allowed = np.all(digits[:, None, 1:] == digits[None, :, :-1], axis=2)
    # [cur, prev] reads w at the raw inputs (cur's p digits, prev's oldest)
    raw = (*digits.T[:, :, None], digits[None, :, -1])
    return MarkovChannel(w[raw], w_tilde=None if wt is None else wt[raw],
                         allowed=allowed, newest=digits[:, 0])
