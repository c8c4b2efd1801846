"""Channel primitives: DMC matrices, input distributions, pairwise distances.

All logarithms are natural; every distance/rate in this package is in nats
unless a caller explicitly converts (the CLI offers bits output).
"""

from dataclasses import dataclass

import numpy as np

PROB_ATOL = 1e-12


class ChannelError(ValueError):
    """Base class for channel validation failures."""


class NonStochasticRow(ChannelError):
    pass


class DimensionMismatch(ChannelError):
    pass


class NegativeEntry(ChannelError):
    pass


def _distribution(values, what, rows=None) -> np.ndarray:
    """The one rule of a probability array: a read-only float copy of
    `values` in which each distribution along the last axis, or each one
    where the boolean mask `rows` holds, is divided by its sum.

    A negative or infinite entry raises NegativeEntry.  A NaN entry, or a
    selected sum off 1 by more than PROB_ATOL, raises NonStochasticRow
    naming the first such row of `what` and its sum.
    """
    p = np.asarray(values, dtype=float)
    if np.any((p < 0) | (p == np.inf)):
        raise NegativeEntry(f"{what} has a negative or infinite entry")
    sums = p.sum(axis=-1)
    off = ~(np.abs(sums - 1.0) <= PROB_ATOL)  # NaN is off
    if rows is not None:
        off &= rows | np.isnan(sums)
    if np.any(off):
        i = tuple(np.argwhere(off)[0].tolist())
        row = f" row {i[0] if len(i) == 1 else i}" if i else ""
        raise NonStochasticRow(f"{what}{row} sums to {float(sums[i])!r}")
    # renormalize exactly to kill accumulated drift; the quotient is a copy
    p = p / (sums if rows is None else np.where(rows, sums, 1.0))[..., None]
    p.flags.writeable = False
    return p


def _metric(values, what, shape=None) -> np.ndarray:
    """The one rule of a decoding metric W~: a float copy of `values`
    whose entries are all finite and >= 0, NegativeEntry otherwise (a NaN
    entry too).  Unlike a probability array, its rows need not sum to 1.
    Where the channel's `shape` is given, any other shape raises
    DimensionMismatch, before a caller's index could crop the metric.
    """
    m = np.array(values, dtype=float)
    if shape is not None and m.shape != shape:
        raise DimensionMismatch(f"{what} must have the shape of w, {shape}, got {m.shape}")
    if not np.all((m >= 0) & (m < np.inf)):
        raise NegativeEntry(f"{what} entries must be finite and >= 0")
    return m


@dataclass(frozen=True)
class Dmc:
    """Discrete memoryless channel: row x of `w` is the distribution W(.|x)."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2:
            raise DimensionMismatch(f"channel matrix must be 2-d, got shape {w.shape}")
        if w.shape[0] < 2:
            raise DimensionMismatch("need at least 2 input symbols")
        object.__setattr__(self, "w", _distribution(w, "channel"))

    @property
    def num_inputs(self):
        return self.w.shape[0]

    @property
    def num_outputs(self):
        return self.w.shape[1]


@dataclass(frozen=True)
class InputDist:
    """Random-coding input distribution Q over the channel input alphabet."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1:
            raise DimensionMismatch("q must be a vector")
        object.__setattr__(self, "q", _distribution(q, "q"))


def _input_dist(q, size, what) -> InputDist:
    """The one reader of an input distribution, shared by every route.

    An `InputDist` is taken as is; anything else goes through `InputDist`.
    Either way q must hold `size` probabilities, one per `what`
    (DimensionMismatch otherwise).
    """
    qv = q.q if isinstance(q, InputDist) else np.asarray(q, dtype=float)
    if qv.shape != (size,):
        raise DimensionMismatch(f"q must hold one probability per {what}, {size} here; "
                                f"got shape {qv.shape}")
    return q if isinstance(q, InputDist) else InputDist(qv)


def _check_nonnegative(name, value):
    """The one rule of a real parameter that must be >= 0; NaN fails."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def _check_finite_nonnegative(name, value):
    """`_check_nonnegative`, and inf fails too."""
    _check_nonnegative(name, value)
    if value == np.inf:
        raise ValueError(f"{name} must be finite, got inf")


def validate_channel(rows, q) -> tuple[Dmc, InputDist]:
    """Validate raw channel rows and input distribution together.

    Raises NonStochasticRow / DimensionMismatch / NegativeEntry on bad input;
    returns the validated, exactly renormalized pair otherwise.
    """
    dmc = Dmc(rows)
    return dmc, _input_dist(q, dmc.num_inputs, "channel input")


def bhattacharyya_matrix(dmc: Dmc) -> np.ndarray:
    """All-pairs Bhattacharyya coefficients as a symmetric JxJ matrix."""
    sw = np.sqrt(dmc.w)
    return sw @ sw.T


def chernoff_matrix(dmc: Dmc, s: float) -> np.ndarray:
    """All-pairs d_s(x, x') as a JxJ matrix (entries may be +inf)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    sums = dmc.w[:, None, :] ** (1.0 - s) * dmc.w[None, :, :] ** s
    total = sums.sum(axis=2)
    with np.errstate(divide="ignore"):
        return -np.log(total)  # -ln 0 = +inf, the disjoint-support convention
