"""Input guards that no other test reaches, one row each.

Each row makes one call that stops at one guard of the library or the
CLI's spec reader, and pins the class and the exact message it raises (or,
for `costello_form_cex` on a useless channel, the value it returns).
"""

import json

import numpy as np
import pytest

from trellisexp import cli, exponents, memory, sim
from trellisexp.channels import Dmc, InputDist

BSC_W = [[0.9, 0.1], [0.1, 0.9]]
CODE = sim.sample_code(sim.EnsembleConfig(m=1, n=2, k=2, L=10, seed=3))


def _spec(**changes):
    """A valid BSC spec as JSON text, with `changes` applied."""
    doc = {"input_alphabet_size": 2, "output_alphabet_size": 2, "w": BSC_W,
           "q": [0.5, 0.5], **changes}
    return json.dumps(doc)


LIFT_W = np.broadcast_to(np.array(BSC_W)[:, None, :], (2, 2, 2))

GUARDS = {
    # cli.parse_channel_spec
    "spec not JSON": (lambda: cli.parse_channel_spec("{"), cli.ChannelSpecError,
                      "line 1: Expecting property name enclosed in double quotes"),
    "spec not an object": (lambda: cli.parse_channel_spec("[1, 2]"), cli.ChannelSpecError,
                           "channel spec must be a JSON object"),
    "spec output size": (lambda: cli.parse_channel_spec(_spec(output_alphabet_size=3)),
                         cli.ChannelSpecError, "output_alphabet_size does not match w"),
    "spec units": (lambda: cli.parse_channel_spec(_spec(units="furlongs")),
                   cli.ChannelSpecError, "units must be nats or bits, got 'furlongs'"),
    "spec w_tilde shape": (lambda: cli.parse_channel_spec(
        _spec(w_tilde=[[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])),
        cli.ChannelSpecError,
        "DimensionMismatch: w_tilde must have the shape of w, (2, 2), got (2, 3)"),
    "spec memory keys": (lambda: cli.parse_channel_spec(
        _spec(memory={"w": LIFT_W.tolist(), "p": 1})),
        cli.ChannelSpecError, "unknown memory keys: ['p']"),
    "spec memory without w": (lambda: cli.parse_channel_spec(_spec(memory={"w_tilde": None})),
                              cli.ChannelSpecError, "memory block needs a w entry"),
    # memory.lift_memory
    "lift p < 1": (lambda: memory.lift_memory(LIFT_W, 0), ValueError, "p must be >= 1, got 0"),
    "lift axis count": (lambda: memory.lift_memory(LIFT_W, 2), ValueError,
                        "w must have 4 axes for p=2, got 3"),
    "lift input axes": (lambda: memory.lift_memory(np.full((2, 3, 2), 0.5), 1), ValueError,
                        "inconsistent input axes in shape (2, 3, 2)"),
    # sim
    "ensemble L < 1": (lambda: sim.EnsembleConfig(m=1, n=2, k=2, L=0, seed=3), ValueError,
                       "L must be >= 1"),
    "transmit channel type": (lambda: sim.transmit(BSC_W, np.zeros(4, int),
                                                   np.random.default_rng(0)),
                              TypeError, "unsupported channel type list"),
    "trials < 1": (lambda: sim.estimate_error_exponent(CODE, Dmc(BSC_W), 0,
                                                       np.random.default_rng(0)),
                   ValueError, "trials must be >= 1"),
    "fixed message not 1-D": (lambda: sim.enumerate_pair_types(
        CODE, 1, fixed_message=np.zeros((1, 12), int)),
        sim.LengthMismatch, "fixed message must be one sequence of blocks, got shape (1, 12)"),
    # exponents
    "curve kind": (lambda: exponents.exponent_curve("bogus", Dmc(BSC_W), [0.5, 0.5], [0.1]),
                   ValueError, "unknown curve kind 'bogus'"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_guard_class_and_message(guard):
    call, error, message = GUARDS[guard]
    with pytest.raises(error) as e:
        call()
    assert type(e.value) is error
    assert str(e.value) == message


def test_costello_form_useless_channel():
    # identical rows: R0 = 0, so only a rate within RATE_TOL of 0 passes the
    # rate rule, and the closed form's 0/0 is read as the exponent 0
    useless = Dmc([[0.5, 0.5], [0.5, 0.5]])
    uniform = InputDist([0.5, 0.5])
    assert exponents.cutoff_rate(useless, uniform) == 0.0
    assert exponents.costello_form_cex(useless, uniform, exponents.RATE_TOL / 2) == 0.0
