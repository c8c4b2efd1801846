import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trellisexp.channels import Dmc, DimensionMismatch, InputDist, NegativeEntry, chernoff_matrix
from trellisexp.exponents import RateOutOfRange, cutoff_rate, exponent_curve, expurgated_ex
from trellisexp.memory import (
    S_MAX,
    MarkovChannel,
    MetricZeroInRatio,
    build_tilted,
    extended_cutoff,
    extended_exponent,
    g_s,
    lift_memory,
    memoryless_lift,
    perron_frobenius,
    _Distances,
)
from conftest import random_channel


@pytest.fixture(scope="module")
def lifted_bsc(bsc01):
    return memoryless_lift(bsc01)


@pytest.fixture(scope="module")
def mismatched_bsc(bsc01):
    """BSC(0.1) decoded with the metric of an asymmetric channel."""
    return memoryless_lift(bsc01, [[0.8, 0.2], [0.3, 0.7]])


def _isi_w(p0, p1):
    """W[x, x_prev, y] of the binary channel whose flip probability is p0
    after input 0 and p1 after input 1."""
    w = np.empty((2, 2, 2))
    for x in range(2):
        for xm, p in enumerate((p0, p1)):
            w[x, xm, x] = 1 - p
            w[x, xm, 1 - x] = p
    return w


@pytest.fixture(scope="module")
def isi():
    return MarkovChannel(_isi_w(0.05, 0.15))


@pytest.fixture(scope="module")
def mismatched_isi():
    """The ISI channel with flip probabilities 0.1 and 0.2, decoded with
    +0.05 on every y = 0 metric entry and -0.05 on every y = 1 entry.  (On
    `isi` that shift puts a metric zero on the channel support.)"""
    w = _isi_w(0.1, 0.2)
    return MarkovChannel(w, w_tilde=w + [0.05, -0.05])


class TestMarkovChannel:
    def test_rejects_nonstochastic(self):
        w = np.zeros((2, 2, 2))
        w[..., 0] = 0.6
        w[..., 1] = 0.3
        with pytest.raises(Exception):
            MarkovChannel(w)

    def test_rejects_negative_or_nonfinite(self):
        good = np.array([[[0.9, 0.1], [0.8, 0.2]], [[0.1, 0.9], [0.2, 0.8]]])
        bad = good.copy()
        bad[0, 0] = [1.5, -0.5]  # sums to 1
        with pytest.raises(NegativeEntry):
            MarkovChannel(bad)
        bad[0, 0] = [math.inf, 0.0]
        with pytest.raises(NegativeEntry):
            MarkovChannel(bad)
        for value in (-0.1, math.nan, math.inf):
            wt = good.copy()
            wt[1, 1, 0] = value
            with pytest.raises(NegativeEntry):
                MarkovChannel(good, w_tilde=wt)
        # a metric need not sum to 1
        assert not MarkovChannel(good, w_tilde=2 * good).matched

    def test_matched_default(self, lifted_bsc):
        assert lifted_bsc.matched

    @pytest.mark.parametrize("w", [[0.5, 0.5], 0.5, np.full((2, 2, 2), 0.5)],
                             ids=["vector", "scalar", "three_axes"])
    def test_memoryless_lift_rejects_non_matrix(self, w):
        # the shape ValueError of MarkovChannel, not numpy's IndexError
        with pytest.raises(ValueError, match=r"w must have shape \(J, Y\), got"):
            memoryless_lift(w)

    BAD_INPUTS = {
        "q_longer_than_base": lambda ch: extended_exponent(ch, [0.5, 0.3, 0.2], 0.1),
        "q_zero_padded": lambda ch: extended_exponent(ch, [0.6, 0.4, 0.0], 0.1),
        "q_sums_below_one": lambda ch: extended_exponent(ch, [0.7, 0.2], 0.1),
        "q_sums_above_one": lambda ch: extended_cutoff(ch, [1.0, 0.5]),
        "q_negative": lambda ch: g_s(ch, [1.5, -0.5], 0.5, 1.0),
        "newest_negative": lambda ch: MarkovChannel(ch.w, newest=[-1, 0]),
        "newest_wrong_length": lambda ch: MarkovChannel(ch.w, newest=[0, 1, 0]),
        "allowed_wrong_shape": lambda ch: MarkovChannel(ch.w, allowed=np.ones((3, 3))),
    }

    @pytest.mark.parametrize("call", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_rejects_bad_q_and_lift_fields(self, lifted_bsc, call):
        with pytest.raises(ValueError):
            call(lifted_bsc)

    def test_two_state_isi(self):
        # binary channel whose flip probability depends on the previous input
        ch = MarkovChannel(_isi_w(0.1, 0.2))
        assert ch.num_symbols == 2

    def test_memoryless_lift_metric(self, bsc01):
        wt = np.array([[0.8, 0.2], [0.3, 0.7]])
        ch = memoryless_lift(bsc01, wt)
        assert not ch.matched
        assert np.array_equal(ch.w_tilde, np.broadcast_to(wt[:, None, :], (2, 2, 2)))
        assert np.array_equal(ch.w, memoryless_lift(bsc01).w)
        assert memoryless_lift(bsc01, bsc01).matched

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (2, 2, 2)])
    def test_memoryless_lift_rejects_metric_of_another_shape(self, bsc01, shape):
        with pytest.raises(ValueError, match=r"w_tilde must have the shape of w, \(2, 2\)"):
            memoryless_lift(bsc01, np.full(shape, 0.5))


def _distance_tensor(ch, s):
    """d_s for all (x, xm, x', xm'), shape (J, J, J, J): `_Distances` in the
    layout of the pair chain, (x, x') by (x_prev, x_prev'), viewed back."""
    j = ch.num_symbols
    return np.transpose(_Distances(ch)(s).reshape(j, j, j, j), (0, 2, 1, 3))


def _markov_chernoff(ch, x, xm, xp, xpm, s):
    """d_s(x, x-; x', x-') = -ln sum_y W(y|x,x-) [W~(y|x',x-')/W~(y|x,x-)]^s
    of one pair of transitions, summed over the support of W(y|x,x-), the
    oracle of `_distance_tensor`; inf where the sum is 0."""
    w, wt, wtp = ch.w[x, xm], ch.w_tilde[x, xm], ch.w_tilde[xp, xpm]
    total = sum(w[y] * (wtp[y] / wt[y]) ** s for y in range(w.size) if w[y] > 0)
    return -math.log(total) if total > 0 else math.inf


class TestMarkovChernoff:
    def test_matched_memoryless_reduction(self, bsc01, lifted_bsc):
        # on a memoryless lift d_s(x, x-; x', x-') is d_s(x, x') at every x-, x-'
        for s in (0.0, 0.5, 0.7, 1.0):
            d = _distance_tensor(lifted_bsc, s)
            want = chernoff_matrix(bsc01, s)[:, None, :, None]
            assert np.allclose(d, np.broadcast_to(want, d.shape), atol=1e-12)

    def test_same_pair_zero(self, lifted_bsc, isi):
        for ch in (lifted_bsc, isi):
            d = _distance_tensor(ch, 0.7).reshape(4, 4)
            assert np.allclose(np.diag(d), 0.0, atol=1e-12)

    def test_mismatched_oracle(self, bsc01):
        ch = memoryless_lift(bsc01, [[0.8, 0.2], [0.2, 0.8]])
        # s = 1: -ln sum_y W(y|0) W~(y|1)/W~(y|0)
        want = -math.log(0.9 * 0.2 / 0.8 + 0.1 * 0.8 / 0.2)
        assert _distance_tensor(ch, 1.0)[0, 0, 1, 0] == pytest.approx(want, abs=1e-12)

    def test_metric_zero_raises(self, bsc01):
        ch = memoryless_lift(bsc01, [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MetricZeroInRatio):
            _distance_tensor(ch, 0.5)
        # at s = 0 no ratio is formed
        assert np.allclose(_distance_tensor(ch, 0.0), 0.0, atol=1e-12)

    def test_tensor_matches_scalar(self):
        rng = np.random.default_rng(61)
        w = rng.random((2, 2, 3)) + 0.05
        w /= w.sum(axis=2, keepdims=True)
        wt = rng.random((2, 2, 3)) + 0.05  # a metric need not sum to 1
        disjoint = memoryless_lift([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        for ch in (MarkovChannel(w), MarkovChannel(w, w_tilde=wt), disjoint):
            for s in (0.0, 0.4, 1.0, 2.5):
                d = _distance_tensor(ch, s)
                for idx in np.ndindex(2, 2, 2, 2):
                    assert d[idx] == pytest.approx(_markov_chernoff(ch, *idx, s), abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_metric_scale_free(self, scale):
        # d_s reads W~ only through its ratios, so a scaled metric has the
        # same d_s; scaled by 1e-300 or 1e300, W~^{-s} or W~^s overflows past
        # s of about 1.03 and d_s is formed by log-sum-exp there.  The tolerance
        # is that of ln(c W~): about 700 eps per log, times s <= S_MAX, twice
        rng = np.random.default_rng(62)
        w = rng.random((2, 2, 3)) + 0.05
        w[0, 1, 2] = 0.0
        w /= w.sum(axis=2, keepdims=True)
        wt = rng.random((2, 2, 3)) + 0.05
        ch, scaled = MarkovChannel(w, w_tilde=wt), MarkovChannel(w, w_tilde=wt * scale)
        for s in (0.0, 0.5, 1.0, 1.5, 3.0, S_MAX):
            want = _distance_tensor(ch, s)
            assert _distance_tensor(scaled, s) == pytest.approx(want, rel=1e-11, abs=1e-11)


class TestTiltedMatrix:
    def test_memoryless_lift_bsc_pattern(self, lifted_bsc, uniform2):
        tm = build_tilted(lifted_bsc, uniform2, s=0.5, r=1.0)
        # all columns identical; column sums 0.8 (entries 1/4 * {1, 0.6, 0.6, 1})
        assert np.allclose(tm, tm[:, :1], atol=1e-12)
        assert np.allclose(tm.sum(axis=0), 0.8, atol=1e-12)

    def test_r_zero_gives_qq(self, lifted_bsc, uniform2):
        tm = build_tilted(lifted_bsc, uniform2, s=0.5, r=0.0)
        assert np.allclose(tm, 0.25, atol=1e-12)

    def test_r_zero_is_right_limit(self):
        # inputs 0 and 1 have disjoint output supports: their pair rows carry
        # e^{-r inf} = 0 for r > 0, and so must A_s(0)
        ch = memoryless_lift(Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]]))
        q = np.full(3, 1 / 3)
        a = build_tilted(ch, q, s=0.5, r=0.0)
        dead = np.zeros((3, 3), bool)
        dead[0, 1] = dead[1, 0] = True
        assert np.all(a[dead.ravel()] == 0.0)
        assert np.allclose(a[~dead.ravel()], 1 / 9, atol=1e-15)
        assert np.allclose(a, build_tilted(ch, q, s=0.5, r=1e-12), atol=1e-12)

    def test_exponent_exact_past_e700(self, uniform2):
        # a metric whose ratio reaches e^706 puts the pair (0, 1) at
        # d_1 = -ln(e^706/2 + 1/2), about -705.3: e^{-r d} is exact up to
        # r = 1, with no cap, and G_1 solved on the shifted matrix agrees
        ch = memoryless_lift([[0.5, 0.5]] * 2, [[math.exp(-706), 1.0], [1.0, 1.0]])
        d = -math.log(0.5 * math.exp(706) + 0.5)
        for r in (0.5, 0.99, 1.0):
            a = build_tilted(ch, uniform2, s=1.0, r=r)
            assert a[1] == pytest.approx(np.full(4, 0.25 * math.exp(-r * d)), rel=1e-12)
            assert g_s(ch, uniform2, 1.0, r) == pytest.approx(
                -math.log(perron_frobenius(a)), rel=1e-12)

    def test_masked_lift_zero_pattern(self, bsc01):
        w2 = np.broadcast_to(bsc01.w[:, None, None, :], (2, 2, 2, 2)).copy()
        lifted = lift_memory(w2, 2)
        tm = build_tilted(lifted, [0.5, 0.5], s=0.5, r=1.0)
        mask = (lifted.allowed[:, None, :, None]
                & lifted.allowed[None, :, None, :]).reshape(16, 16)
        assert np.all((tm > 0) == mask)


class TestPerronFrobenius:
    def test_rank_one_bsc(self, lifted_bsc, uniform2):
        tm = build_tilted(lifted_bsc, uniform2, s=0.5, r=1.0)
        assert perron_frobenius(tm) == pytest.approx(0.8, abs=1e-10)

    def test_diagonal(self):
        tm = np.diag([0.3, 0.3, 0.3])
        assert perron_frobenius(tm) == pytest.approx(0.3, abs=1e-12)

    def test_2x2_quadratic_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            a, b, c, d = rng.random(4) + 0.01
            lam = 0.5 * (a + d + math.sqrt((a - d) ** 2 + 4 * b * c))
            tm = np.array([[a, b], [c, d]])
            assert perron_frobenius(tm) == pytest.approx(lam, abs=1e-10)

    def test_rank_one_identity_random(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            dmc, q = random_channel(rng, j=3)
            ch = memoryless_lift(dmc)
            s, r = rng.random(), rng.random() * 3
            tm = build_tilted(ch, q, s, r)
            d = chernoff_matrix(dmc, s)
            want = float(np.sum(np.outer(q.q, q.q) * np.exp(-r * d)))
            assert perron_frobenius(tm) == pytest.approx(want, abs=1e-12)

    def test_periodic(self):
        # eigenvalues +1 and -1: power iteration from the ones vector oscillates
        tm = np.array([[0.0, 2.0], [0.5, 0.0]])
        assert perron_frobenius(tm) == pytest.approx(1.0, abs=1e-14)


class TestGsFs:
    def test_g_half_one_is_cutoff(self, bsc01, uniform2, lifted_bsc):
        assert g_s(lifted_bsc, uniform2, 0.5, 1.0) == pytest.approx(
            cutoff_rate(bsc01, uniform2), abs=1e-10)

    def test_g_at_r_zero(self, lifted_bsc, uniform2):
        assert g_s(lifted_bsc, uniform2, 0.5, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_rho_g_is_expurgated(self, bsc01, uniform2, lifted_bsc):
        for rho in (1.0, 2.0, 5.0):
            got = rho * g_s(lifted_bsc, uniform2, 0.5, 1.0 / rho)
            want = expurgated_ex(bsc01, uniform2, rho)
            assert got == pytest.approx(want, abs=1e-9)

    def test_infinite_s_or_r_raises(self, lifted_bsc, uniform2):
        # s = inf gave an all-NaN A_s(r) with no error, and r = inf a
        # LinAlgError from the eigenvalue solve
        with pytest.raises(ValueError, match="s must be finite"):
            build_tilted(lifted_bsc, uniform2, math.inf, 0.5)
        with pytest.raises(ValueError, match="r must be finite"):
            g_s(lifted_bsc, uniform2, 0.5, math.inf)
        with pytest.raises(ValueError, match="r must be finite"):
            build_tilted(lifted_bsc, uniform2, 0.5, math.inf)

    def test_g_concave_in_r(self, lifted_bsc, uniform2):
        rs = np.linspace(0.0, 3.0, 20)
        vals = [g_s(lifted_bsc, uniform2, 0.5, r) for r in rs]
        mids = [g_s(lifted_bsc, uniform2, 0.5, 0.5 * (a + b))
                for a, b in zip(rs, rs[2:])]
        for m, lo, hi in zip(mids, vals, vals[2:]):
            assert m >= 0.5 * (lo + hi) - 1e-10


class TestExtendedExponent:
    def test_cutoff_reduction(self, bsc01, uniform2, lifted_bsc):
        assert extended_cutoff(lifted_bsc, uniform2) == pytest.approx(
            0.2231, abs=5e-4)

    def test_useless_channel_cutoff_zero(self):
        ch = memoryless_lift(Dmc([[0.5, 0.5], [0.5, 0.5]]))
        assert extended_cutoff(ch, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)

    def test_matched_reduces_to_trtc(self, bsc01, uniform2, lifted_bsc):
        from trellisexp.exponents import exponent_curve, solve_rho
        for rate in (0.08, 0.15, 0.2):
            value, s_star, rho = extended_exponent(lifted_bsc, uniform2, rate)
            want = exponent_curve("trtc", bsc01, uniform2, [rate]).points[0][1]
            assert value == pytest.approx(want, abs=1e-3)
            assert s_star == 0.5
            want_rho = solve_rho("trtc", bsc01, uniform2, rate).rho
            assert rho == pytest.approx(want_rho, rel=1e-9)
        # at the extended cutoff the root clamps at r = 1
        cutoff = extended_cutoff(lifted_bsc, uniform2)
        assert extended_exponent(lifted_bsc, uniform2, cutoff)[2] == 1.0

    def test_mismatched_cutoff_not_better(self, bsc01, uniform2, lifted_bsc):
        mm = memoryless_lift(bsc01, [[0.8, 0.2], [0.2, 0.8]])
        assert extended_cutoff(mm, uniform2) <= (
            extended_cutoff(lifted_bsc, uniform2) + 1e-9)

    def test_rate_out_of_range(self, lifted_bsc, uniform2):
        with pytest.raises(RateOutOfRange):
            extended_exponent(lifted_bsc, uniform2, 0.5)

    def test_rate_rule_from_own_search(self, monkeypatch, lifted_bsc, uniform2):
        from trellisexp import memory

        def no_cutoff(*args):
            raise AssertionError("extended_cutoff called")

        monkeypatch.setattr(memory, "extended_cutoff", no_cutoff)
        value, _, rho = extended_exponent(lifted_bsc, uniform2, 0.1)
        assert value > 1 and rho > 1

    @pytest.mark.parametrize("w_tilde", [None, [[0.8, 0.2], [0.3, 0.7]]])
    def test_rate_rule_at_extended_cutoff(self, bsc01, uniform2, w_tilde):
        ch = memoryless_lift(bsc01, w_tilde)
        r0 = extended_cutoff(ch, uniform2)
        assert extended_exponent(ch, uniform2, r0 * (1 + 1e-12))[2] == 1.0
        with pytest.raises(RateOutOfRange):
            extended_exponent(ch, uniform2, r0 * (1 + 1e-9))

    def test_tiny_rate_finite(self, bsc01, uniform2, lifted_bsc):
        # rhat0 = 0 for the BSC: the root rho ~ 1.28e6 exists and is not capped
        from trellisexp.exponents import exponent_curve
        value, s_star, rho = extended_exponent(lifted_bsc, uniform2, 1e-7)
        want = exponent_curve("trtc", bsc01, uniform2, [1e-7]).points[0][1]
        assert math.isfinite(value) and value == pytest.approx(want, rel=1e-8)
        assert rho == pytest.approx(1277064.43, rel=1e-8)

    def test_unbounded_exactly_below_edge(self):
        # rhat0 = 1/2 ln(9/7): the lifted exponent is inf below it (G_s(0) =
        # 2 rhat0 >= 2R) and equals trtc above it
        from trellisexp.exponents import exponent_curve
        dmc = Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]])
        q = InputDist(np.full(3, 1 / 3))
        lift = memoryless_lift(dmc)
        rhat0 = 0.5 * math.log(9 / 7)
        assert extended_exponent(lift, q, 0.999 * rhat0)[0] == math.inf
        value, s_star, _ = extended_exponent(lift, q, 1.001 * rhat0)
        want = exponent_curve("trtc", dmc, q, [1.001 * rhat0]).points[0][1]
        assert math.isfinite(want)
        assert value == pytest.approx(want, rel=1e-9)
        assert s_star == 0.5

    def test_isi_channel_vs_grid_oracle(self, uniform2, isi):
        ch = isi
        rate = 0.15
        value, s_star, _ = extended_exponent(ch, uniform2, rate)
        best = -math.inf
        for s in np.linspace(0.05, 2.0, 40):
            for rho in np.linspace(1.0, 8.0, 400):
                lhs = rho * g_s(ch, uniform2, s, 1.0 / rho)
                if abs(lhs - (2 * rho - 1) * rate) < 2e-3:
                    best = max(best, lhs / rate)
        assert value >= best - 0.02

    @staticmethod
    def _count_solves(monkeypatch):
        """Count root searches, their evaluations (clamped and interior
        roots apart) and eigenvalue solves of the memory route."""
        from trellisexp import memory
        counts = dict(roots=0, evals=0, clamped=0, interior=0, pf=0)
        unit_root, pf = memory._unit_root, memory.perron_frobenius

        def counting_root(f):
            def counted(r):
                counts["evals"] += 1
                return f(r)
            counts["roots"] += 1
            r = unit_root(counted)
            counts["clamped"] += r == 1.0
            counts["interior"] += 0.0 < r < 1.0
            return r

        def counting_pf(a):
            counts["pf"] += 1
            return pf(a)

        monkeypatch.setattr(memory, "_unit_root", counting_root)
        monkeypatch.setattr(memory, "perron_frobenius", counting_pf)
        return counts

    @pytest.mark.parametrize("name", ["mismatched_bsc", "mismatched_isi"])
    def test_each_s_solved_once(self, request, monkeypatch, uniform2, name):
        # each s of the search solves G_s(1) once, for the root's f(1) and
        # for the value where the root clamps at r = 1, and every other
        # eigenvalue solve is an evaluation inside the root search: an
        # interior root gives its value (2 - r)/r with no further solve
        ch = request.getfixturevalue(name)
        counts = self._count_solves(monkeypatch)
        s_stars = [extended_exponent(ch, uniform2, rate)[1] for rate in (0.05, 0.1, 0.15)]
        assert counts["interior"] > 0 and counts["clamped"] > 0
        assert counts["pf"] == counts["evals"]
        assert 0.5 not in s_stars  # a search, not the matched s* = 1/2
        if name == "mismatched_bsc":
            assert min(s_stars) > 0.9

    @pytest.mark.parametrize("name", ["lifted_bsc", "isi", "memory2"])
    def test_matched_solved_at_half(self, request, monkeypatch, uniform2, name):
        # a matched channel takes s = 1/2 with no search over s: one root
        # search per point, whose evaluations are every eigenvalue solve
        from trellisexp import memory

        def no_search(*args, **kwargs):
            raise AssertionError("search over s on a matched channel")

        ch = request.getfixturevalue(name)
        monkeypatch.setattr(memory, "_argmax_concave", no_search)
        counts = self._count_solves(monkeypatch)
        rates = (0.05, 0.1, 0.15)
        assert [extended_exponent(ch, uniform2, rate)[1] for rate in rates] == [0.5] * 3
        assert counts["roots"] == len(rates)
        assert counts["pf"] == counts["evals"]
        extended_cutoff(ch, uniform2)
        assert counts["pf"] == counts["evals"] + 1

    def test_r_zero_drops_far_pairs_only_at_positive_s(self, disjoint3):
        # rhat0 = 1/2 ln(9/7) > 0: at s > 0 the pairs of inputs 0 and 1 are
        # at infinite distance and G_s(0) = 2 rhat0, while d_0 = 0 on every
        # pair and G_0(0) = 0
        q = np.full(3, 1 / 3)
        for s in (0.5, 0.0, 2.0):
            want = 0.0 if s == 0 else math.log(9 / 7)
            assert g_s(disjoint3, q, s, 0.0) == pytest.approx(want, abs=1e-14)


def _reference_generator(ch, q, s):
    """G_s(r) of one (channel, Q, s) by the per-s formula, the oracle of
    `_PairChain`: A_s(r) = QQ' e^{-r d_s} on the allowed transition pairs,
    0 on pairs at infinite distance (also at r = 0), from the scalar
    `_markov_chernoff` distances, one eigenvalue solve per r and nothing
    shared between s or r."""
    j = ch.num_symbols
    n = j * j
    qn = np.asarray(q, dtype=float)[ch.newest]
    d = np.array([_markov_chernoff(ch, x, xm, xp, xpm, s)
                  for x, xp, xm, xpm in np.ndindex(j, j, j, j)]).reshape(n, n)
    far = d == math.inf
    mask = (ch.allowed[:, None, :, None] & ch.allowed[None, :, None, :]).reshape(n, n)
    weights = np.where(mask & ~far, np.outer(qn, qn).reshape(n, 1), 0.0)
    d = np.where(far, 0.0, d)

    def g(r):
        lam = np.max(np.abs(np.linalg.eigvals(weights * np.exp(-r * d))))
        return -math.log(lam) if lam > 0 else math.inf
    return g


def _reference_value_at(ch, q, rate):
    """The objective of `extended_exponent` at each s, from a fresh
    `_reference_generator` per s."""
    from trellisexp.exponents import _unit_root

    def value_at(s):
        g = _reference_generator(ch, q, s)
        g1 = g(1.0)
        r = _unit_root(lambda r: (g1 if r == 1.0 else g(r)) - (2 - r) * rate)
        return g1 / rate if r == 1 else (2 - r) / r if r > 0 else math.inf
    return value_at


def _reference_extended_exponent(ch, q, rate):
    """`extended_exponent` by the search over [0, S_MAX] on every channel,
    matched or not, with the objective of `_reference_value_at`."""
    from trellisexp.exponents import _argmax_concave
    s_star, best = _argmax_concave(_reference_value_at(ch, q, rate), 0.0, S_MAX, xatol=1e-6)
    return best, s_star, max(1.0, (1.0 + best) / 2)


def _reference_extended_cutoff(ch, q):
    """`extended_cutoff` by the search over [0, S_MAX] on every channel."""
    from trellisexp.exponents import _argmax_concave
    return _argmax_concave(lambda s: _reference_generator(ch, q, s)(1.0), 0.0, S_MAX,
                           xatol=1e-8)[1]


@pytest.fixture(scope="module")
def memory2():
    """Two past inputs: crossover 0.04 plus 0.05 per past input != x."""
    w = np.empty((2, 2, 2, 2))
    for x, a, b in np.ndindex(2, 2, 2):
        p = 0.04 + 0.05 * ((a != x) + (b != x))
        w[x, a, b, x], w[x, a, b, 1 - x] = 1 - p, p
    return lift_memory(w, 2)


@pytest.fixture(scope="module")
def disjoint3():
    """The lift of a 3-input channel whose inputs 0 and 1 share no output."""
    return memoryless_lift(Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]]))


_RHAT0_DISJOINT3 = 0.5 * math.log(9 / 7)
# fixture: (q, rates)
ORACLE_CASES = {
    "lifted_bsc": ([0.5, 0.5], (0.03, 0.12, 0.21)),
    "isi": ([0.5, 0.5], (0.05, 0.15)),
    "memory2": ([0.5, 0.5], (0.05, 0.15)),
    "mismatched_bsc": ([0.5, 0.5], (0.05, 0.15)),
    # rhat0 > 0: s = 0 and s > 0 have different infinite-distance masks
    "disjoint3": ([1 / 3] * 3, (0.999 * _RHAT0_DISJOINT3, 1.001 * _RHAT0_DISJOINT3,
                                1.1 * _RHAT0_DISJOINT3, 0.3)),
}


class TestPairChainOracle:
    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_matches_per_s_formula(self, request, name):
        q, rates = ORACLE_CASES[name]
        ch = request.getfixturevalue(name)
        assert extended_cutoff(ch, q) == pytest.approx(_reference_extended_cutoff(ch, q),
                                                       rel=1e-12, abs=1e-15)
        for rate in rates:
            value, s_star, rho = extended_exponent(ch, q, rate)
            want_value, _, want_rho = _reference_extended_exponent(ch, q, rate)
            assert value == pytest.approx(want_value, rel=1e-12)
            assert rho == pytest.approx(want_rho, rel=1e-12)
            # s* is a maximiser of the per-s formula, not necessarily the
            # search's point: below rhat0 on disjoint3 every s > 0 is one
            at_s_star = _reference_value_at(ch, q, rate)(s_star)
            assert at_s_star == pytest.approx(want_value, rel=1e-12)


class TestMlEquivalentMetric:
    """BSC(0.1) decoded with the metric of a BSC(eps), eps < 1/2, decides as
    the ML decoder does, so the sup over s meets the matched values: R0 and
    trtc.  The smaller eps, the narrower the peak in s (near
    s = ln 9 / (2 ln(1/eps))) and the larger d_s past it: W~^{-s} overflows
    from s of about 709 / ln(1/eps), and the largest entry of A_s(r) leaves
    the float range soon after."""

    @pytest.mark.parametrize("eps", [1e-3, 1e-40, 1e-100, 1e-200, 1e-300])
    def test_meets_the_matched_values(self, bsc01, uniform2, eps):
        ch = memoryless_lift(bsc01, [[1 - eps, eps], [eps, 1 - eps]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r0_ext = extended_cutoff(ch, uniform2)
            values = [extended_exponent(ch, uniform2, rate)[0] for rate in (0.02, 0.1)]
        assert r0_ext == pytest.approx(cutoff_rate(bsc01, uniform2), rel=1e-9)
        for rate, value in zip((0.02, 0.1), values):
            want = exponent_curve("trtc", bsc01, uniform2, [rate]).points[0][1]
            assert value == pytest.approx(want, rel=1e-12)


@st.composite
def matched_channels(draw):
    """Random matched (MarkovChannel, q) with 2-3 outputs and zero entries
    allowed: 2-3 inputs with one past input, or 2 inputs with two past
    inputs, lifted by `lift_memory` to 4 symbols with a consistency mask."""
    two_past = draw(st.booleans())
    j = 2 if two_past else draw(st.integers(2, 3))
    ny = draw(st.integers(2, 3))
    cells = (j,) * (3 if two_past else 2)
    weight = st.integers(0, 9)
    w = np.array([draw(st.lists(weight, min_size=ny, max_size=ny)
                       .filter(lambda row: sum(row) > 0))
                  for _ in range(math.prod(cells))], float).reshape(*cells, ny)
    w /= w.sum(axis=-1, keepdims=True)
    q = np.array(draw(st.lists(weight, min_size=j, max_size=j)
                      .filter(lambda row: sum(row) > 0)), float)
    return lift_memory(w, 2) if two_past else MarkovChannel(w), q / q.sum()


class TestMatchedHalf:
    """On a matched channel G_s = G_{1-s} on (0, 1) and G_{1/2} >= G_s, so
    s = 1/2 gives what the search over [0, S_MAX] gives."""

    @settings(max_examples=40, deadline=None)
    @given(matched_channels(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(0.0, 1.0))
    def test_g_symmetric_about_half(self, channel, s, r):
        ch, q = channel
        assert g_s(ch, q, s, r) == pytest.approx(g_s(ch, q, 1 - s, r), rel=1e-12, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(matched_channels(), st.floats(0.0, S_MAX), st.floats(0.0, 1.0))
    def test_half_is_maximiser(self, channel, s, r):
        ch, q = channel
        assert g_s(ch, q, 0.5, r) >= g_s(ch, q, s, r) - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(matched_channels(), st.floats(0.05, 0.95))
    def test_matches_search(self, channel, fraction):
        # G_s is -ln of an eigenvalue solved to about 1e-15 absolute, and
        # the search over s keeps the largest of its rounded values, so G_s
        # matches to 1e-14 absolute and a value G_s(r)/(r R) to 1e-14/R
        # relative beyond 1e-12 (at R = 7.9e-5 the per-s formula read
        # 1.3e-12 higher at the searched s* than at s = 1/2)
        ch, q = channel
        r0 = extended_cutoff(ch, q)
        assert r0 == pytest.approx(_reference_extended_cutoff(ch, q), rel=1e-12, abs=1e-14)
        assume(r0 > 1e-3)
        rate = fraction * r0
        # at R = rhat0 = G_s(0)/2 the value is inf or finite by rounding
        rhat0 = g_s(ch, q, 0.5, 0.0) / 2
        assume(abs(rate - rhat0) > 1e-9 * rhat0)
        value, s_star, rho = extended_exponent(ch, q, rate)
        want_value, _, want_rho = _reference_extended_exponent(ch, q, rate)
        assert s_star == 0.5
        rel = 1e-12 + 1e-14 / rate
        assert value == pytest.approx(want_value, rel=rel)
        assert rho == pytest.approx(want_rho, rel=rel)


BSC_W = np.array([[0.9, 0.1], [0.1, 0.9]])
METRIC_DOORS = {
    # door: (w as the door takes it, its metric's required shape, the call)
    "MarkovChannel": ((2, 2, 2), lambda wt: MarkovChannel(
        np.broadcast_to(BSC_W[:, None, :], (2, 2, 2)), w_tilde=wt)),
    "memoryless_lift": ((2, 2), lambda wt: memoryless_lift(BSC_W, wt)),
    "lift_memory": ((2, 2, 2, 2), lambda wt: lift_memory(
        np.broadcast_to(BSC_W[:, None, None, :], (2, 2, 2, 2)), 2, w_tilde=wt)),
}


@pytest.mark.parametrize("door", METRIC_DOORS)
@pytest.mark.parametrize("grow", [(-1, 0), (0, 1), (1, 0), (1, 1), "axis"])
def test_metric_shape_one_rule(door, grow):
    # every door reads w_tilde by `channels._metric` at the shape of w: one
    # class and one message, also for a larger metric, whose leading slice
    # a lift's index would otherwise have read as the metric
    shape, call = METRIC_DOORS[door]
    if grow == "axis":
        got = (*shape, 2)
    else:
        got = (*shape[:-2], shape[-2] + grow[0], shape[-1] + grow[1])
    with pytest.raises(DimensionMismatch) as e:
        call(np.full(got, 0.5))
    assert str(e.value) == f"w_tilde must have the shape of w, {shape}, got {got}"
    assert not call(np.full(shape, 0.5)).matched


class TestLiftMemory:
    def test_p1_identity(self, lifted_bsc):
        ch = lift_memory(lifted_bsc.w, 1)
        assert np.array_equal(ch.w, lifted_bsc.w)
        assert np.all(ch.allowed)

    @pytest.mark.parametrize("p", [2.0, 1.5, "2"])
    def test_non_integer_p_raises(self, bsc01, p):
        # 2.0 used to reach numpy's "can't multiply sequence by non-int"
        # TypeError through `(j,) * (p + 1)`
        w2 = np.broadcast_to(bsc01.w[:, None, None, :], (2, 2, 2, 2)).copy()
        with pytest.raises(ValueError, match=f"p must be an integer, got {p!r}"):
            lift_memory(w2, p)

    @pytest.mark.parametrize("shape", [(3, 3, 3, 2), (3, 2, 2, 2)])
    def test_rejects_w_tilde_of_another_shape(self, bsc01, shape):
        # the fancy index of the lift used to crop a larger metric to its
        # first slices, a plausible wrong metric with no error
        w2 = np.broadcast_to(bsc01.w[:, None, None, :], (2, 2, 2, 2))
        with pytest.raises(ValueError,
                           match=r"w_tilde must have the shape of w, \(2, 2, 2, 2\)"):
            lift_memory(w2, 2, w_tilde=np.full(shape, 0.5))

    def test_p2_binary_successors(self, bsc01):
        w2 = np.broadcast_to(bsc01.w[:, None, None, :], (2, 2, 2, 2)).copy()
        lifted = lift_memory(w2, 2)
        assert lifted.num_symbols == 4
        assert np.all(lifted.allowed.sum(axis=1) == 2)

    def test_p2_memoryless_cutoff_unchanged(self, bsc01, uniform2):
        w2 = np.broadcast_to(bsc01.w[:, None, None, :], (2, 2, 2, 2)).copy()
        lifted = lift_memory(w2, 2)
        want = extended_cutoff(memoryless_lift(bsc01), uniform2)
        assert extended_cutoff(lifted, uniform2) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("j", [2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_loop_reference(self, j, p):
        rng = np.random.default_rng(10 * j + p)
        w = rng.random((j,) * (p + 1) + (3,))
        w /= w.sum(axis=-1, keepdims=True)
        wt = rng.random(w.shape)
        for w_tilde in (None, wt):
            got = lift_memory(w, p, w_tilde=w_tilde)
            want_w, want_wt, allowed, newest = _lift_by_loops(w, p, w_tilde)
            assert np.array_equal(got.w, want_w)
            assert np.array_equal(got.w_tilde, want_wt)
            assert np.array_equal(got.allowed, allowed)
            assert np.array_equal(got.newest, newest)


def _lift_by_loops(w, p, w_tilde):
    """Reference lift, one (cur, prev) pair of lifted symbols at a time:
    (w, w_tilde, allowed, newest), with each allowed row of w divided by its
    sum, as MarkovChannel does, and w_tilde = w when it is None."""
    j, ny = w.shape[0], w.shape[-1]
    wt = w if w_tilde is None else w_tilde
    jl = j ** p
    digits = np.empty((jl, p), dtype=int)  # newest-first base-J digits
    for idx in range(jl):
        rem = idx
        for pos in range(p - 1, -1, -1):
            digits[idx, pos] = rem % j
            rem //= j
    allowed = np.zeros((jl, jl), dtype=bool)
    wl = np.zeros((jl, jl, ny))
    wtl = np.zeros((jl, jl, ny))
    for cur in range(jl):
        for prev in range(jl):
            raw = tuple(digits[cur]) + (digits[prev, -1],)
            wl[cur, prev] = w[raw]
            wtl[cur, prev] = wt[raw]
            allowed[cur, prev] = np.array_equal(digits[cur, 1:], digits[prev, :-1])
    wl[allowed] /= wl[allowed].sum(axis=-1, keepdims=True)
    return wl, wl if w_tilde is None else wtl, allowed, digits[:, 0]
