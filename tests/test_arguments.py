"""The four argument rules that every route shares.

Every entry that takes an input distribution reads it one way: an
`InputDist` as is, anything else through `InputDist`, and either way with
one probability per input symbol (DimensionMismatch otherwise).  Every real
parameter that must be nonnegative is checked one way, so NaN is an error,
never a plausible number.  Every probability array of a value type (`Dmc`,
`InputDist`, `JointType`, `MarkovChannel`) is checked, renormalised and
frozen one way: a negative or infinite entry is NegativeEntry, a NaN entry
or a sum off 1 is NonStochasticRow, and the object holds a read-only copy.
Every decoding metric, a raw (J, Y) matrix of `viterbi_decode` or the
`w_tilde` of a `MarkovChannel`, is checked one way: an entry that is not
finite and >= 0 (NaN included) is NegativeEntry, rows need not sum to 1,
and a `w_tilde` not of the shape of w is DimensionMismatch.
"""

import dataclasses
import math

import numpy as np
import pytest

from trellisexp import channels, exponents, memory, sim, types_opt
from trellisexp.channels import (ChannelError, DimensionMismatch, Dmc, InputDist,
                                 NegativeEntry, NonStochasticRow)

BSC_W = [[0.9, 0.1], [0.1, 0.9]]
BSC = Dmc(BSC_W)
UNIFORM2 = InputDist([0.5, 0.5])
LIFT = memory.memoryless_lift(BSC)
CFG = sim.EnsembleConfig(m=1, n=2, k=2, L=10, seed=3)
CODE = sim.sample_code(CFG, j=2, q=UNIFORM2)
# disjoint output supports on some input pairs, so rhat0 > 0
W3 = Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]])
UNIFORM3 = InputDist([1 / 3, 1 / 3, 1 / 3])

# every public entry that takes q, as a function of q alone
Q_ENTRIES = {
    "validate_channel": lambda q: channels.validate_channel(BSC_W, q),
    "gallager_e0": lambda q: exponents.gallager_e0(BSC, q, 0.5),
    "expurgated_ex": lambda q: exponents.expurgated_ex(BSC, q, 2.0),
    # Ex at rho = inf, its zero-rate limit
    "expurgated_ex_limit": lambda q: exponents.expurgated_ex(BSC, q, math.inf),
    "cutoff_rate": lambda q: exponents.cutoff_rate(BSC, q),
    "critical_rate": lambda q: exponents.critical_rate(BSC, q),
    "solve_rho cex": lambda q: exponents.solve_rho("cex", BSC, q, 0.1),
    "solve_rho trtc": lambda q: exponents.solve_rho("trtc", BSC, q, 0.1),
    "exponent_curve": lambda q: exponents.exponent_curve("trtc", BSC, q, [0.05, 0.1]),
    "costello_form_cex": lambda q: exponents.costello_form_cex(BSC, q, 0.1),
    "divergence_qq": lambda q: types_opt.divergence_qq(
        types_opt.JointType([[0.4, 0.1], [0.1, 0.4]]), q),
    "z_of_rhat_legendre": lambda q: types_opt.z_of_rhat_legendre(BSC, q, 0.05),
    "z_of_rhat_direct": lambda q: types_opt.z_of_rhat_direct(BSC, q, 0.05),
    "csiszar_exponent": lambda q: types_opt.csiszar_exponent(BSC, q, 0.1),
    "dominant_joint_type": lambda q: types_opt.dominant_joint_type(BSC, q, 0.1),
    "build_tilted": lambda q: memory.build_tilted(LIFT, q, 0.5, 0.5),
    "g_s": lambda q: memory.g_s(LIFT, q, 0.5, 0.5),
    "extended_cutoff": lambda q: memory.extended_cutoff(LIFT, q),
    "extended_exponent": lambda q: memory.extended_exponent(LIFT, q, 0.1),
    "sample_code": lambda q: sim.sample_code(CFG, j=2, q=q),
    "sample_code linear": lambda q: sim.sample_code(
        sim.EnsembleConfig(m=1, n=2, k=2, L=10, linear=True), j=2, q=q),
    "typicality_check": lambda q: sim.typicality_check(CODE, q, 0.3, 2),
    "typicality_audit": lambda q: sim.typicality_audit(CFG, 2, q, 2, 0.3, 2),
}


def _plain(x):
    """Dataclasses as dicts and tuples as lists, all the way down, for
    `np.testing.assert_equal`, which compares arrays and NaN exactly."""
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


@pytest.mark.parametrize("entry", Q_ENTRIES)
@pytest.mark.parametrize("q", [[1.0], [0.2, 0.3, 0.5], InputDist([0.2, 0.3, 0.5]),
                               [[0.5, 0.5]]], ids=["one", "three", "dist3", "2d"])
def test_wrong_length_q_is_dimension_mismatch(entry, q):
    with pytest.raises(DimensionMismatch, match="one probability per"):
        Q_ENTRIES[entry](q)


@pytest.mark.parametrize("entry", Q_ENTRIES)
def test_list_q_same_as_input_dist(entry):
    np.testing.assert_equal(_plain(Q_ENTRIES[entry]([0.5, 0.5])),
                            _plain(Q_ENTRIES[entry](UNIFORM2)))


def test_sample_code_rejects_a_q_numpy_would_take():
    # numpy's choice forgives a sum off by about 1.5e-8; the code draws
    # with the q that every other route reads, or not at all
    with pytest.raises(NonStochasticRow):
        sim.sample_code(CFG, j=2, q=[0.5, 0.5 + 1e-9])
    with pytest.raises(NonStochasticRow):
        sim.typicality_audit(CFG, 2, [0.5, 0.5 + 1e-9], 1, 0.3, 2)


# every guard of a real parameter that must be >= 0 (or > 0), at NaN
NAN_GUARDS = {
    "gallager_e0 rho": lambda: exponents.gallager_e0(BSC, UNIFORM2, math.nan),
    "expurgated_ex rho": lambda: exponents.expurgated_ex(BSC, UNIFORM2, math.nan),
    "z_of_rhat_direct rhat": lambda: types_opt.z_of_rhat_direct(BSC, UNIFORM2, math.nan),
    "z_of_rhat_legendre rhat": lambda: types_opt.z_of_rhat_legendre(BSC, UNIFORM2, math.nan),
    "dominant_joint_type rho": lambda: types_opt.dominant_joint_type(BSC, UNIFORM2, math.nan),
    # the pair-chain distances d_s(x, x-; x', x-')
    "markov_chernoff s": lambda: memory._Distances(LIFT)(math.nan),
    "build_tilted s": lambda: memory.build_tilted(LIFT, UNIFORM2, math.nan, 0.5),
    "build_tilted r": lambda: memory.build_tilted(LIFT, UNIFORM2, 0.5, math.nan),
    "g_s r": lambda: memory.g_s(LIFT, UNIFORM2, 0.5, math.nan),
    "enumerate_pair_types l_max": lambda: sim.enumerate_pair_types(CODE, math.nan),
}


# dominant_joint_type takes the rate R and solves rho from it: a NaN rate
# fails the rate rule of `check_rate`
NAN_MESSAGES = {"dominant_joint_type rho": r"need 0 < R < R0=.*got R=nan"}


@pytest.mark.parametrize("guard", NAN_GUARDS)
def test_nan_parameter_raises(guard):
    with pytest.raises(ValueError, match=NAN_MESSAGES.get(guard, r"must be >=? 0.*got nan")):
        NAN_GUARDS[guard]()


class TestInfiniteRho:
    def test_gallager_e0_raises(self):
        # E0 at rho = inf used to read -ln 2, a negative E0
        with pytest.raises(ValueError, match="finite"):
            exponents.gallager_e0(BSC, UNIFORM2, math.inf)

    def test_dominant_joint_type_raises(self):
        # dominant_joint_type takes a rate, not rho: inf fails the rate rule
        with pytest.raises(exponents.RateOutOfRange, match="got R=inf"):
            types_opt.dominant_joint_type(BSC, UNIFORM2, math.inf)

    @pytest.mark.parametrize("dmc, q", [(BSC, UNIFORM2), (W3, UNIFORM3)], ids=["bsc", "w3"])
    def test_expurgated_ex_is_its_zero_rate_limit(self, dmc, q):
        # RuntimeWarnings are errors in this suite, so no NaN is formed
        value = exponents.expurgated_ex(dmc, q, math.inf)
        with np.errstate(divide="ignore"):  # -E[ln Z] by hand, ln 0 = -inf
            assert value == pytest.approx(-np.sum(np.outer(q.q, q.q) * np.log(
                channels.bhattacharyya_matrix(dmc))), rel=1e-12)
        if dmc is W3:
            assert value == math.inf
        else:
            assert value == pytest.approx(-0.5 * math.log(0.6), rel=1e-12)  # -E[ln Z]
            assert value == pytest.approx(exponents.expurgated_ex(dmc, q, 1e9), rel=1e-8)


# every value type with a probability array: its constructor and valid
# inputs, each a writable array the caller keeps
VALUE_TYPES = {
    "Dmc": (Dmc, {"w": BSC_W}),
    "InputDist": (InputDist, {"q": [0.5, 0.5]}),
    "JointType": (types_opt.JointType, {"p": [[0.4, 0.1], [0.1, 0.4]]}),
    "MarkovChannel": (memory.MarkovChannel, {"w": LIFT.w, "w_tilde": 2 * LIFT.w,
                                             "allowed": [[True, True], [True, False]],
                                             "newest": [0, 1]}),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_hold_read_only_copies(name):
    make, fields = VALUE_TYPES[name]
    inputs = {key: np.array(value) for key, value in fields.items()}
    obj = make(**inputs)
    for key, arr in inputs.items():
        held = getattr(obj, key)
        kept = held.copy()
        assert not held.flags.writeable, key
        if arr.dtype == bool:
            arr ^= True
        else:
            arr += 5
        np.testing.assert_array_equal(getattr(obj, key), kept)


def test_markov_channel_ignores_edits_of_its_input():
    # an edit of the caller's array used to reach the channel, and this
    # call then raised RateOutOfRange naming R0 = -0.425
    w = np.array(LIFT.w)
    ch = memory.MarkovChannel(w)
    want = memory.extended_exponent(ch, UNIFORM2, 0.1)
    w[0, 0] = [5.0, -4.0]
    assert memory.extended_exponent(ch, UNIFORM2, 0.1) == want


# one fault in a value type's probability array: a value put at its first
# entry, or (None) every entry scaled by 1 - 1e-9
FAULTS = {
    "negative": (-0.1, NegativeEntry),
    "inf": (math.inf, NegativeEntry),
    "-inf": (-math.inf, NegativeEntry),
    "nan": (math.nan, NonStochasticRow),
    "sum_off": (None, NonStochasticRow),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("name", VALUE_TYPES)
def test_probability_array_rule(name, fault):
    make, fields = VALUE_TYPES[name]
    key = next(iter(fields))
    arr = np.array(fields[key], dtype=float)
    value, error = FAULTS[fault]
    if value is None:
        arr *= 1 - 1e-9
    else:
        arr.flat[0] = value
    with pytest.raises(error):
        make(**{**fields, key: arr})


def test_non_stochastic_row_names_the_row_and_its_sum():
    with pytest.raises(NonStochasticRow, match=r"^channel row 1 sums to 0\.9$"):
        Dmc([[0.9, 0.1], [0.5, 0.4]])
    with pytest.raises(NonStochasticRow, match=r"^q sums to 0\.9$"):
        InputDist([0.5, 0.4])
    with pytest.raises(NonStochasticRow, match=r"^joint type sums to 0\.9$"):
        types_opt.JointType([[0.5, 0.4], [0.0, 0.0]])
    w = np.array(LIFT.w)
    w[1, 0] = [0.5, 0.4]
    with pytest.raises(NonStochasticRow, match=r"^w row \(1, 0\) sums to 0\.9$"):
        memory.MarkovChannel(w)


@pytest.mark.parametrize("entry", [math.nan, -0.1, math.inf, -math.inf],
                         ids=["nan", "negative", "inf", "-inf"])
def test_metric_rule_on_both_routes(entry):
    raw = np.array(BSC_W)
    raw[1, 0] = entry
    raw3 = np.array(LIFT.w)
    raw3[1, 1, 0] = entry
    y = np.zeros(CFG.n * CFG.num_branches, dtype=np.int64)
    with pytest.raises(ChannelError, match="decoding metric entries must be finite") as decode:
        sim.viterbi_decode(CODE, raw, y)
    with pytest.raises(ChannelError, match="w_tilde entries must be finite") as lifted:
        memory.MarkovChannel(LIFT.w, w_tilde=raw3)
    assert decode.type is lifted.type is NegativeEntry


def test_raw_metric_need_not_sum_to_one():
    y = np.zeros(CFG.n * CFG.num_branches, dtype=np.int64)
    np.testing.assert_array_equal(sim.viterbi_decode(CODE, 2 * np.array(BSC_W), y),
                                  sim.viterbi_decode(CODE, BSC, y))


def test_matched_channel_checks_no_metric(monkeypatch):
    # the matched metric is w itself, not a checked copy of it
    monkeypatch.setattr(memory, "_metric", None)
    ch = memory.MarkovChannel(LIFT.w)
    assert ch.w_tilde is ch.w and ch.matched


class TestMarkovChannelRows:
    ALLOWED = np.array([[True, True], [True, False]])

    def test_allowed_rows_renormalised_as_dmc_rows(self):
        w = np.array(LIFT.w)
        w[0, 1] = [0.7, 0.3 + 4e-13]
        w[1, 1] = [0.5, 0.25]  # not allowed: kept as is
        ch = memory.MarkovChannel(w, allowed=self.ALLOWED)
        np.testing.assert_array_equal(ch.w[0, 1], Dmc([w[0, 1], w[0, 0]]).w[0])
        np.testing.assert_array_equal(ch.w[1, 1], [0.5, 0.25])
        np.testing.assert_array_equal(ch.w[1, 0], LIFT.w[1, 0])

    def test_nan_in_a_row_not_allowed(self):
        w = np.array(LIFT.w)
        w[1, 1, 0] = math.nan
        with pytest.raises(NonStochasticRow, match=r"row \(1, 1\) sums to nan"):
            memory.MarkovChannel(w, allowed=self.ALLOWED)


SHAPE_ERRORS = {
    "Dmc vector": (lambda: Dmc([0.5, 0.5]), DimensionMismatch, "2-d"),
    "Dmc 3-d": (lambda: Dmc(LIFT.w), DimensionMismatch, "2-d"),
    "Dmc one input": (lambda: Dmc([[0.5, 0.5]]), DimensionMismatch, "2 input"),
    "InputDist matrix": (lambda: InputDist([[0.5, 0.5]]), DimensionMismatch, "vector"),
    "InputDist scalar": (lambda: InputDist(1.0), DimensionMismatch, "vector"),
    "JointType not square": (lambda: types_opt.JointType([[0.5, 0.5]]), DimensionMismatch,
                             "square"),
    "JointType vector": (lambda: types_opt.JointType([0.5, 0.5]), DimensionMismatch,
                         "square"),
    "MarkovChannel w 2-d": (lambda: memory.MarkovChannel(BSC_W), ValueError, "shape"),
    "MarkovChannel w not square": (lambda: memory.MarkovChannel(np.full((2, 3, 2), 0.5)),
                                   ValueError, "shape"),
    "MarkovChannel w_tilde": (lambda: memory.MarkovChannel(LIFT.w, w_tilde=BSC_W),
                              DimensionMismatch,
                              r"^w_tilde must have the shape of w, \(2, 2, 2\), got \(2, 2\)$"),
}


@pytest.mark.parametrize("case", SHAPE_ERRORS)
def test_shape_errors(case):
    call, error, match = SHAPE_ERRORS[case]
    with pytest.raises(error, match=match):
        call()
