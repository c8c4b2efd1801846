import os

import numpy as np
import pytest
from hypothesis import strategies as st

from trellisexp.channels import Dmc, InputDist

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="session")
def bsc01():
    return Dmc([[0.9, 0.1], [0.1, 0.9]])


@pytest.fixture(scope="session")
def uniform2():
    return InputDist([0.5, 0.5])


@pytest.fixture(scope="session")
def asym3():
    """Fixed asymmetric 3-input/3-output channel with non-uniform Q."""
    dmc = Dmc([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]])
    q = InputDist([0.5, 0.3, 0.2])
    return dmc, q


def random_channel(rng, j=None, ny=None):
    """A random strictly positive DMC and input distribution."""
    j = j or rng.integers(2, 5)
    ny = ny or rng.integers(2, 5)
    w = rng.random((j, ny)) + 0.05
    w /= w.sum(axis=1, keepdims=True)
    q = rng.random(j) + 0.1
    q /= q.sum()
    return Dmc(w), InputDist(q)


@st.composite
def channels_with_zeros(draw):
    """(W, Q, disjoint): W of 2-4 inputs and outputs with integer weights
    0..4, so zero entries are common; with `disjoint`, rows 0 and 1 sit on
    disjoint output sets, so that rhat0 > 0.  Q is positive."""
    j, ny = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    w = np.array(draw(st.lists(st.lists(st.integers(0, 4), min_size=ny, max_size=ny),
                               min_size=j, max_size=j)), dtype=float)
    disjoint = draw(st.booleans())
    if disjoint:
        w[0, ny // 2:] = 0.0
        w[1, :ny // 2] = 0.0
        if not w[1].any():
            w[1, -1] = 1.0
    w[~w.any(axis=1), 0] = 1.0  # output 0 is in row 0's half where disjoint
    q = np.array(draw(st.lists(st.integers(1, 4), min_size=j, max_size=j)), dtype=float)
    return Dmc(w / w.sum(axis=1, keepdims=True)), InputDist(q / q.sum()), disjoint
