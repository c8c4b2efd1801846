"""Channels with one-step input memory and mismatched metrics.

The pairwise distance generalizes to d_s(x, x-; x', x-') and the expurgated
generator becomes rho * G_s(1/rho) with G_s(r) = -ln lambda_s(r), lambda_s(r)
the Perron-Frobenius eigenvalue of the J^2 x J^2 tilted pair-chain matrix.
Channels remembering p > 1 past inputs are handled by lifting to an alphabet
of size J^p with a sparse consistency mask.
"""

from dataclasses import dataclass

import numpy as np

from .channels import PROB_ATOL, NegativeEntry, NonStochasticRow
from .exponents import _argmax_concave, _unit_root, check_rate

S_MAX_DEFAULT = 8.0


class MetricZeroInRatio(ArithmeticError):
    pass


@dataclass(frozen=True)
class MarkovChannel:
    """Channel W(y | x, x_prev) with an optional mismatched metric W~.

    `w` has shape (J, J, Y) indexed [x, x_prev, y].  For lifted channels,
    `allowed[x, x_prev]` masks inconsistent symbol transitions and
    `newest[x]` maps a lifted symbol to the base-alphabet symbol it reveals
    (the component that carries the Q-weight in the pair chain).
    """

    w: np.ndarray
    w_tilde: np.ndarray = None
    allowed: np.ndarray = None
    newest: np.ndarray = None
    base_size: int = None

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 3 or w.shape[0] != w.shape[1]:
            raise ValueError(f"w must have shape (J, J, Y), got {w.shape}")
        j = w.shape[0]
        allowed = self.allowed
        allowed = np.ones((j, j), bool) if allowed is None else np.asarray(allowed, bool)
        wt = w if self.w_tilde is None else np.asarray(self.w_tilde, dtype=float)
        if wt.shape != w.shape:
            raise ValueError("w_tilde shape differs from w")
        for name, arr in (("w", w), ("w_tilde", wt)):  # w_tilde need not sum to 1
            if not np.all(np.isfinite(arr) & (arr >= 0)):
                raise NegativeEntry(f"{name} has a negative or non-finite entry")
        sums = w.sum(axis=2)
        if np.any(np.abs(sums[allowed] - 1.0) > PROB_ATOL):
            raise NonStochasticRow("some allowed (x, x_prev) row does not sum to 1")
        newest = self.newest
        newest = np.arange(j) if newest is None else np.asarray(newest, int)
        base = self.base_size if self.base_size is not None else j
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "w_tilde", wt)
        object.__setattr__(self, "allowed", allowed)
        object.__setattr__(self, "newest", newest)
        object.__setattr__(self, "base_size", base)

    @property
    def num_symbols(self):
        return self.w.shape[0]

    @property
    def matched(self):
        return self.w_tilde is self.w or np.array_equal(self.w_tilde, self.w)


def memoryless_lift(dmc_w) -> MarkovChannel:
    """Embed a memoryless channel matrix W(y|x) as a MarkovChannel."""
    w = np.asarray(getattr(dmc_w, "w", dmc_w), dtype=float)
    j = w.shape[0]
    return MarkovChannel(np.broadcast_to(w[:, None, :], (j, j, w.shape[1])).copy())


@dataclass(frozen=True)
class TiltedMatrix:
    a: np.ndarray  # (J^2, J^2), rows (x, x'), columns (x_prev, x_prev')
    s: float
    r: float


def markov_chernoff(ch: MarkovChannel, x, xm, xp, xpm, s: float) -> float:
    """Distance d_s(x, x-; x', x-') = -ln sum_y W(y|x,x-) [W~(y|x',x-')/W~(y|x,x-)]^s.

    May be negative under mismatch; s >= 0 is unrestricted above.
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    w = ch.w[x, xm]
    wt = ch.w_tilde[x, xm]
    wtp = ch.w_tilde[xp, xpm]
    support = w > 0
    if s > 0 and np.any(support & (wt <= 0)):
        raise MetricZeroInRatio(
            f"metric W~(y|{x},{xm}) vanishes on the support of W(y|{x},{xm})"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(support, (wtp / np.where(support, wt, 1.0)) ** s, 0.0)
    total = float(np.sum(w[support] * ratio[support]))
    if total <= 0.0:
        return np.inf
    return -np.log(total)


def _distance_tensor(ch: MarkovChannel, s: float) -> np.ndarray:
    """d_s for all (x, xm, x', xm'), shape (J, J, J, J)."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
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


def _tilted_family(ch: MarkovChannel, q, s: float):
    """Builder r -> A_s(r) of the tilted pair-chain matrix, entries
    Q Q' e^{-r d_s} masked, with the s-dependent distance tensor computed once.

    `q` is the input distribution over the base alphabet; lifted symbols are
    weighted by the Q-probability of their newest component.
    """
    qv = np.asarray(getattr(q, "q", q), dtype=float)
    j = ch.num_symbols
    qn = qv[ch.newest]
    # rows (x, x'), columns (xm, xm')
    d = np.transpose(_distance_tensor(ch, s), (0, 2, 1, 3))
    qq = qn[:, None, None, None] * qn[None, :, None, None]
    mask = (ch.allowed[:, None, :, None] & ch.allowed[None, :, None, :])
    inf_d = np.isinf(d) & (d > 0)

    def build(r):
        if r < 0:
            raise ValueError(f"r must be >= 0, got {r}")
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf at r = 0
            ent = np.exp(np.clip(-r * d, -745.0, 700.0))
        ent[inf_d] = 0.0  # also at r = 0: A_s(0) is the limit r -> 0+
        a = np.where(mask, qq * ent, 0.0)
        return TiltedMatrix(a.reshape(j * j, j * j), s, r)

    return build


def build_tilted(ch: MarkovChannel, q, s: float, r: float) -> TiltedMatrix:
    """Tilted pair-chain matrix A_s(r) with entries Q Q' e^{-r d_s}, masked."""
    return _tilted_family(ch, q, s)(r)


def perron_frobenius(tm: TiltedMatrix) -> float:
    """Spectral radius of the nonnegative tilted matrix (its Perron root),
    from one dense eigenvalue solve; periodic and reducible masks are fine."""
    return float(np.max(np.abs(np.linalg.eigvals(tm.a))))


def g_s(ch: MarkovChannel, q, s: float, r: float) -> float:
    """Rate-function generator G_s(r) = -ln lambda_s(r) in nats."""
    return _generator(ch, q, s)(r)


def _generator(ch: MarkovChannel, q, s: float):
    """G_s as a function of r, for one s.  G_s(r) is concave in r and in s
    (Kingman's convexity of the log spectral radius)."""
    build = _tilted_family(ch, q, s)

    def g(r):
        lam = perron_frobenius(build(r))
        return -np.log(lam) if lam > 0 else np.inf

    return g


def f_s(ch: MarkovChannel, q, s: float, d: float) -> float:
    """Large-deviations rate function F_s(d) = sup_{r >= 0} [G_s(r) - r d]."""
    g = _generator(ch, q, s)
    return max(0.0, float(_argmax_concave(lambda r: g(r) - r * d, 0.0)[1]))


def extended_cutoff(ch: MarkovChannel, q, s_max: float = S_MAX_DEFAULT) -> float:
    """Extended cutoff rate sup_{s >= 0} G_s(1), concave in s, over [0, s_max]."""
    return float(_argmax_concave(lambda s: g_s(ch, q, s, 1.0), 0.0, s_max,
                                 xatol=1e-8)[1])


def extended_exponent(ch: MarkovChannel, q, rate: float,
                      s_max: float = S_MAX_DEFAULT):
    """Typical-code exponent bound sup_{s >= 0} rho_{R,s} G_s(1/rho_{R,s}) / R.

    Returns (value, argmax s, rho at the argmax).  {s : rho_{R,s} >= t} is
    an interval, so the objective is quasi-concave in s and one bounded
    search over [0, s_max] finds its maximum; a boundary-active argmax
    (s == s_max) is reported as-is.  The root is solved in r = 1/rho on
    [0, 1] by `_unit_root`: G_s(r) = (2 - r) R, value G_s(r)/(r R).  Where
    no root rho >= 1 exists the objective takes its continuous extension
    G_s(1)/R (rho = 1); it is inf exactly when G_s(0) >= 2R (no root).
    """
    r0 = extended_cutoff(ch, q, s_max)
    check_rate(rate, r0)

    def value_at(s):
        # rho G_s(1/rho) is the perspective of a concave function, so
        # G_s(r) - (2 - r) R = [rho G_s(1/rho) - (2 rho - 1) R] / rho crosses
        # zero at most once on (0, 1], upward
        g = _generator(ch, q, s)
        r = _unit_root(lambda r: g(r) - (2 - r) * rate)
        return (g(r) / (r * rate), 1.0 / r) if r > 0 else (np.inf, np.inf)

    s_star, best = _argmax_concave(lambda s: value_at(s)[0], 0.0, s_max, xatol=1e-6)
    return float(best), float(s_star), float(value_at(s_star)[1])


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
    ny = w.shape[-1]
    wt = None if w_tilde is None else np.asarray(w_tilde, dtype=float)
    if p == 1:
        return MarkovChannel(w, w_tilde=wt)

    jl = j ** p
    digits = np.empty((jl, p), dtype=int)  # newest-first base-J digits
    for idx in range(jl):
        rem = idx
        for pos in range(p - 1, -1, -1):
            digits[idx, pos] = rem % j
            rem //= j
    allowed = np.zeros((jl, jl), dtype=bool)
    wl = np.zeros((jl, jl, ny))
    wtl = None if wt is None else np.zeros((jl, jl, ny))
    for cur in range(jl):
        for prev in range(jl):
            consistent = np.array_equal(digits[cur, 1:], digits[prev, :-1])
            raw = tuple(digits[cur]) + (digits[prev, -1],)
            wl[cur, prev] = w[raw]
            if wtl is not None:
                wtl[cur, prev] = wt[raw]
            if consistent:
                allowed[cur, prev] = True
    return MarkovChannel(wl, w_tilde=wtl, allowed=allowed,
                         newest=digits[:, 0], base_size=j)
