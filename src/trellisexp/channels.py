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
        if np.any(w < 0):
            raise NegativeEntry("negative channel probability")
        sums = w.sum(axis=1)
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= PROB_ATOL))  # NaN fails
        if bad.size:
            raise NonStochasticRow(f"row {bad[0]} sums to {sums[bad[0]]!r}")
        w = w / sums[:, None]  # renormalize exactly to kill accumulated drift
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

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
        if np.any(q < 0):
            raise NegativeEntry("negative probability in q")
        s = q.sum()
        if not abs(s - 1.0) <= PROB_ATOL:  # NaN fails
            raise NonStochasticRow(f"q sums to {s!r}")
        q = q / s
        q.flags.writeable = False
        object.__setattr__(self, "q", q)


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


def chernoff_distance(dmc: Dmc, x: int, xp: int, s: float) -> float:
    """Chernoff distance d_s(x, x') = -ln sum_y W^{1-s}(y|x) W^s(y|x') in nats.

    Returns +inf when the two rows have disjoint supports and s is interior
    (the zero sum is represented exactly, never clamped).
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    wx = dmc.w[x]
    wxp = dmc.w[xp]
    # numpy gives 0**0 == 1, which is exactly the convention that makes
    # d_0(x, x') = -ln sum_y W(y|x) = 0.
    total = float(np.sum(wx ** (1.0 - s) * wxp ** s))
    if total <= 0.0:
        return np.inf
    return -np.log(total)


def bhattacharyya(dmc: Dmc, x: int, xp: int) -> float:
    """Bhattacharyya coefficient Z(x, x') = sum_y sqrt(W(y|x) W(y|x'))."""
    return float(np.sum(np.sqrt(dmc.w[x] * dmc.w[xp])))


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
