"""Cross-route agreement: the Ex route, the types route and the
Perron-Frobenius route must give the same exponent, or all give inf."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trellisexp.channels import Dmc, InputDist
from trellisexp.exponents import cutoff_rate, exponent_curve
from trellisexp.memory import extended_exponent, memoryless_lift
from trellisexp.types_opt import (
    _legendre_edge,
    csiszar_exponent,
    z_of_rhat_direct,
    z_of_rhat_legendre,
)

NOISELESS = Dmc([[1.0, 0.0], [0.0, 1.0]])
UNIFORM2 = InputDist([0.5, 0.5])


def _curve(kind, dmc, q, rate):
    return exponent_curve(kind, dmc, q, [rate]).points[0][1]


def test_noiseless_bsc_unbounded_below_half_r0():
    # Ex(rho) = rho ln 2: trtc is unbounded for R < ln2/2 and equals
    # ln2/(2R - ln2) above it; cex is unbounded at every rate
    lift = memoryless_lift(NOISELESS)
    rate = 0.1
    assert _curve("trtc", NOISELESS, UNIFORM2, rate) == math.inf
    assert _curve("cex", NOISELESS, UNIFORM2, rate) == math.inf
    assert csiszar_exponent(NOISELESS, UNIFORM2, rate) == math.inf
    assert z_of_rhat_legendre(NOISELESS, UNIFORM2, 0.05) == math.inf
    assert z_of_rhat_direct(NOISELESS, UNIFORM2, 0.05)[0] == math.inf
    assert extended_exponent(lift, UNIFORM2, rate)[0] == math.inf

    rate = 0.5
    want = math.log(2) / (2 * rate - math.log(2))
    assert want == pytest.approx(2.258891, abs=1e-6)
    assert _curve("trtc", NOISELESS, UNIFORM2, rate) == pytest.approx(want, abs=1e-6)
    assert csiszar_exponent(NOISELESS, UNIFORM2, rate) == pytest.approx(want, abs=1e-6)
    assert extended_exponent(lift, UNIFORM2, rate)[0] == pytest.approx(want, abs=1e-6)
    assert _curve("cex", NOISELESS, UNIFORM2, rate) == math.inf


@st.composite
def channels(draw):
    """Random (W, Q) with 2-3 inputs, 2-3 outputs and zero entries allowed."""
    j = draw(st.integers(2, 3))
    ny = draw(st.integers(2, 3))
    weight = st.integers(0, 9)
    w = np.array([draw(st.lists(weight, min_size=ny, max_size=ny)
                       .filter(lambda row: sum(row) > 0)) for _ in range(j)], float)
    q = np.array(draw(st.lists(weight, min_size=j, max_size=j)
                      .filter(lambda row: sum(row) > 0)), float)
    return Dmc(w / w.sum(axis=1, keepdims=True)), InputDist(q / q.sum())


def _close(got, want):
    if want == math.inf:
        return got == math.inf
    return abs(got - want) <= 1e-6 * max(1.0, want)


@settings(max_examples=25, deadline=None)
@given(channels(), st.floats(0.1, 0.9))
def test_routes_agree_on_random_channels(channel, fraction):
    dmc, q = channel
    r0 = cutoff_rate(dmc, q)
    assume(r0 > 1e-3)
    rate = fraction * r0
    trtc = _curve("trtc", dmc, q, rate)
    assert _close(csiszar_exponent(dmc, q, rate), trtc)
    if dmc.num_inputs == 2:
        assert _close(extended_exponent(memoryless_lift(dmc), q, rate)[0], trtc)


@st.composite
def channels_with_copies(draw):
    """`channels()` draws, half of them with one row copied onto another."""
    dmc, q = draw(channels())
    if draw(st.booleans()):
        src, dst = draw(st.permutations(range(dmc.num_inputs)))[:2]
        w = dmc.w.copy()
        w[dst] = w[src]
        dmc = Dmc(w)
    return dmc, q


# fraction of the way from rhat0 to D_diag/2, with offsets down to 1e-60
RHAT_FRACTIONS = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.9), st.integers(-60, -2)),
)


@settings(max_examples=100, deadline=None)
@given(channels_with_copies(), RHAT_FRACTIONS)
def test_legendre_and_direct_z_agree(channel, fraction):
    dmc, q = channel
    rhat0, _ = _legendre_edge(dmc, q)
    d_diag = -math.log(np.sum(q.q ** 2))
    rhat = rhat0 + fraction * (d_diag / 2 - rhat0)
    legendre = z_of_rhat_legendre(dmc, q, rhat)
    direct = z_of_rhat_direct(dmc, q, rhat)[0]
    if legendre == math.inf:
        assert direct == math.inf
    else:
        assert abs(direct - legendre) <= 1e-6 * max(1.0, legendre)
