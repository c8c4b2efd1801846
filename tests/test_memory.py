import math

import numpy as np
import pytest

from trellisexp.channels import Dmc, InputDist, NegativeEntry, chernoff_distance
from trellisexp.exponents import RateOutOfRange, cutoff_rate, expurgated_ex
from trellisexp.memory import (
    MarkovChannel,
    MetricZeroInRatio,
    TiltedMatrix,
    build_tilted,
    extended_cutoff,
    extended_exponent,
    f_s,
    g_s,
    lift_memory,
    markov_chernoff,
    memoryless_lift,
    perron_frobenius,
    _distance_tensor,
)
from conftest import random_channel


@pytest.fixture(scope="module")
def lifted_bsc(bsc01):
    return memoryless_lift(bsc01)


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

    def test_two_state_isi(self):
        # binary channel whose flip probability depends on the previous input
        w = np.empty((2, 2, 2))
        for x in range(2):
            for xm in range(2):
                p = 0.1 if xm == 0 else 0.2
                w[x, xm, x] = 1 - p
                w[x, xm, 1 - x] = p
        ch = MarkovChannel(w)
        assert ch.num_symbols == 2


class TestMarkovChernoff:
    def test_matched_memoryless_reduction(self, bsc01, lifted_bsc):
        got = markov_chernoff(lifted_bsc, 0, 0, 1, 0, 0.5)
        assert got == pytest.approx(chernoff_distance(bsc01, 0, 1, 0.5), abs=1e-12)

    def test_same_pair_zero(self, lifted_bsc):
        assert markov_chernoff(lifted_bsc, 1, 0, 1, 0, 0.7) == pytest.approx(
            0.0, abs=1e-12)

    def test_mismatched_oracle(self, bsc01):
        wt = np.broadcast_to(np.array([[0.8, 0.2], [0.2, 0.8]])[:, None, :],
                             (2, 2, 2)).copy()
        ch = MarkovChannel(memoryless_lift(bsc01).w, w_tilde=wt)
        # s = 1: -ln sum_y W(y|0) W~(y|1)/W~(y|0)
        want = -math.log(0.9 * 0.2 / 0.8 + 0.1 * 0.8 / 0.2)
        assert markov_chernoff(ch, 0, 0, 1, 0, 1.0) == pytest.approx(want, abs=1e-12)

    def test_metric_zero_raises(self, bsc01):
        wt = np.broadcast_to(np.array([[1.0, 0.0], [0.0, 1.0]])[:, None, :],
                             (2, 2, 2)).copy()
        ch = MarkovChannel(memoryless_lift(bsc01).w, w_tilde=wt)
        with pytest.raises(MetricZeroInRatio):
            markov_chernoff(ch, 0, 0, 1, 0, 0.5)

    def test_tensor_matches_scalar(self):
        rng = np.random.default_rng(61)
        w = rng.random((2, 2, 3)) + 0.05
        w /= w.sum(axis=2, keepdims=True)
        ch = MarkovChannel(w)
        d = _distance_tensor(ch, 0.4)
        for idx in np.ndindex(2, 2, 2, 2):
            x, xm, xp, xpm = idx
            assert d[idx] == pytest.approx(
                markov_chernoff(ch, x, xm, xp, xpm, 0.4), abs=1e-12)


class TestTiltedMatrix:
    def test_memoryless_lift_bsc_pattern(self, lifted_bsc, uniform2):
        tm = build_tilted(lifted_bsc, uniform2, s=0.5, r=1.0)
        # all columns identical; column sums 0.8 (entries 1/4 * {1, 0.6, 0.6, 1})
        assert np.allclose(tm.a, tm.a[:, :1], atol=1e-12)
        assert np.allclose(tm.a.sum(axis=0), 0.8, atol=1e-12)

    def test_r_zero_gives_qq(self, lifted_bsc, uniform2):
        tm = build_tilted(lifted_bsc, uniform2, s=0.5, r=0.0)
        assert np.allclose(tm.a, 0.25, atol=1e-12)

    def test_r_zero_is_right_limit(self):
        # inputs 0 and 1 have disjoint output supports: their pair rows carry
        # e^{-r inf} = 0 for r > 0, and so must A_s(0)
        ch = memoryless_lift(Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]]))
        q = np.full(3, 1 / 3)
        a = build_tilted(ch, q, s=0.5, r=0.0).a
        dead = np.zeros((3, 3), bool)
        dead[0, 1] = dead[1, 0] = True
        assert np.all(a[dead.ravel()] == 0.0)
        assert np.allclose(a[~dead.ravel()], 1 / 9, atol=1e-15)
        assert np.allclose(a, build_tilted(ch, q, s=0.5, r=1e-12).a, atol=1e-12)

    def test_masked_lift_zero_pattern(self, bsc01):
        w2 = np.broadcast_to(bsc01.w[:, None, None, :], (2, 2, 2, 2)).copy()
        lifted = lift_memory(w2, 2)
        tm = build_tilted(lifted, [0.5, 0.5], s=0.5, r=1.0)
        mask = (lifted.allowed[:, None, :, None]
                & lifted.allowed[None, :, None, :]).reshape(16, 16)
        assert np.all((tm.a > 0) == mask)


class TestPerronFrobenius:
    def test_rank_one_bsc(self, lifted_bsc, uniform2):
        tm = build_tilted(lifted_bsc, uniform2, s=0.5, r=1.0)
        assert perron_frobenius(tm) == pytest.approx(0.8, abs=1e-10)

    def test_diagonal(self):
        tm = TiltedMatrix(np.diag([0.3, 0.3, 0.3]), 0.5, 1.0)
        assert perron_frobenius(tm) == pytest.approx(0.3, abs=1e-12)

    def test_2x2_quadratic_oracle(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            a, b, c, d = rng.random(4) + 0.01
            lam = 0.5 * (a + d + math.sqrt((a - d) ** 2 + 4 * b * c))
            tm = TiltedMatrix(np.array([[a, b], [c, d]]), 0.0, 0.0)
            assert perron_frobenius(tm) == pytest.approx(lam, abs=1e-10)

    def test_rank_one_identity_random(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            dmc, q = random_channel(rng, j=3)
            ch = memoryless_lift(dmc)
            s, r = rng.random(), rng.random() * 3
            tm = build_tilted(ch, q, s, r)
            d = np.array([[chernoff_distance(dmc, x, xp, s) for xp in range(3)]
                          for x in range(3)])
            want = float(np.sum(np.outer(q.q, q.q) * np.exp(-r * d)))
            assert perron_frobenius(tm) == pytest.approx(want, abs=1e-12)

    def test_periodic(self):
        # eigenvalues +1 and -1: power iteration from the ones vector oscillates
        tm = TiltedMatrix(np.array([[0.0, 2.0], [0.5, 0.0]]), 0.5, 1.0)
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

    def test_g_concave_in_r(self, lifted_bsc, uniform2):
        rs = np.linspace(0.0, 3.0, 20)
        vals = [g_s(lifted_bsc, uniform2, 0.5, r) for r in rs]
        mids = [g_s(lifted_bsc, uniform2, 0.5, 0.5 * (a + b))
                for a, b in zip(rs, rs[2:])]
        for m, lo, hi in zip(mids, vals, vals[2:]):
            assert m >= 0.5 * (lo + hi) - 1e-10

    def test_f_zero_at_mean(self, lifted_bsc, uniform2):
        d = _distance_tensor(lifted_bsc, 0.5)
        mean = float(np.sum(np.outer(uniform2.q, uniform2.q) * d[:, 0, :, 0]))
        assert f_s(lifted_bsc, uniform2, 0.5, mean) == pytest.approx(0.0, abs=1e-9)

    def test_f_convex_nonincreasing(self, lifted_bsc, uniform2):
        ds = np.linspace(0.0, 0.5, 15)
        vals = [f_s(lifted_bsc, uniform2, 0.5, d) for d in ds]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
        mids = [f_s(lifted_bsc, uniform2, 0.5, 0.5 * (a + b))
                for a, b in zip(ds, ds[2:])]
        for m, lo, hi in zip(mids, vals, vals[2:]):
            assert m <= 0.5 * (lo + hi) + 1e-9


class TestExtendedExponent:
    def test_cutoff_reduction(self, bsc01, uniform2, lifted_bsc):
        assert extended_cutoff(lifted_bsc, uniform2) == pytest.approx(
            0.2231, abs=5e-4)

    def test_useless_channel_cutoff_zero(self):
        ch = memoryless_lift(Dmc([[0.5, 0.5], [0.5, 0.5]]))
        assert extended_cutoff(ch, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)

    def test_matched_reduces_to_trtc(self, bsc01, uniform2, lifted_bsc):
        from trellisexp.exponents import exponent_curve
        for rate in (0.08, 0.15, 0.2):
            value, s_star, rho = extended_exponent(lifted_bsc, uniform2, rate)
            want = exponent_curve("trtc", bsc01, uniform2, [rate]).points[0][1]
            assert value == pytest.approx(want, abs=1e-3)
            assert s_star == pytest.approx(0.5, abs=0.02)

    def test_mismatched_cutoff_not_better(self, bsc01, uniform2, lifted_bsc):
        wt = np.broadcast_to(np.array([[0.8, 0.2], [0.2, 0.8]])[:, None, :],
                             (2, 2, 2)).copy()
        mm = MarkovChannel(lifted_bsc.w, w_tilde=wt)
        assert extended_cutoff(mm, uniform2) <= (
            extended_cutoff(lifted_bsc, uniform2) + 1e-9)

    def test_rate_out_of_range(self, lifted_bsc, uniform2):
        with pytest.raises(RateOutOfRange):
            extended_exponent(lifted_bsc, uniform2, 0.5)

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
        assert s_star == pytest.approx(0.5, abs=1e-4)

    def test_isi_channel_vs_grid_oracle(self, uniform2):
        # flip probability depends on the previous input
        w = np.empty((2, 2, 2))
        for x in range(2):
            for xm in range(2):
                p = 0.05 if xm == 0 else 0.15
                w[x, xm, x] = 1 - p
                w[x, xm, 1 - x] = p
        ch = MarkovChannel(w)
        rate = 0.15
        value, s_star, _ = extended_exponent(ch, uniform2, rate)
        best = -math.inf
        for s in np.linspace(0.05, 2.0, 40):
            for rho in np.linspace(1.0, 8.0, 400):
                lhs = rho * g_s(ch, uniform2, s, 1.0 / rho)
                if abs(lhs - (2 * rho - 1) * rate) < 2e-3:
                    best = max(best, lhs / rate)
        assert value >= best - 0.02


class TestLiftMemory:
    def test_p1_identity(self, lifted_bsc):
        ch = lift_memory(lifted_bsc.w, 1)
        assert np.array_equal(ch.w, lifted_bsc.w)
        assert np.all(ch.allowed)

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
