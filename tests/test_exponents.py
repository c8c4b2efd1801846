import math

import numpy as np
import pytest

from trellisexp.channels import Dmc, InputDist
from trellisexp.exponents import (
    NotBinaryInput,
    NotUniformQ,
    RateOutOfRange,
    costello_form_cex,
    critical_rate,
    cutoff_rate,
    exponent_curve,
    expurgated_ex,
    expurgated_ex_limit,
    gallager_e0,
    solve_rho,
)
from conftest import random_channel

# direct high-precision evaluation of the E0 formula for the BSC:
# E0(rho) = -ln[ 2 (0.5 (0.9^{1/(1+rho)} + 0.1^{1/(1+rho)}))^{1+rho} / 2 ]
E0_BSC_HALF = -math.log(
    (0.5 * (0.9 ** (1 / 1.5) + 0.1 ** (1 / 1.5))) ** 1.5 * 2.0)


class TestGallagerE0:
    def test_rho_one_is_cutoff(self, bsc01, uniform2):
        assert gallager_e0(bsc01, uniform2, 1.0) == pytest.approx(0.2231, abs=5e-4)

    def test_rho_zero(self, bsc01, uniform2):
        assert gallager_e0(bsc01, uniform2, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_rho_half_oracle(self, bsc01, uniform2):
        assert gallager_e0(bsc01, uniform2, 0.5) == pytest.approx(
            E0_BSC_HALF, abs=1e-12)
        assert E0_BSC_HALF == pytest.approx(0.1402, abs=5e-4)

    def test_nondecreasing_concave(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            dmc, q = random_channel(rng)
            rhos = np.linspace(0.0, 4.0, 30)
            vals = [gallager_e0(dmc, q, r) for r in rhos]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            mids = [gallager_e0(dmc, q, 0.5 * (a + b))
                    for a, b in zip(rhos, rhos[2:])]
            for m, lo, hi in zip(mids, vals, vals[2:]):
                assert m >= 0.5 * (lo + hi) - 1e-12


class TestExpurgatedEx:
    def test_rho_one_equals_e0(self, bsc01, uniform2):
        assert expurgated_ex(bsc01, uniform2, 1.0) == pytest.approx(
            gallager_e0(bsc01, uniform2, 1.0), abs=1e-12)

    def test_rho_two_oracle(self, bsc01, uniform2):
        # -2 ln(0.5 (1 + 0.6^{1/2}))
        want = -2.0 * math.log(0.5 * (1.0 + math.sqrt(0.6)))
        assert expurgated_ex(bsc01, uniform2, 2.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.2391, abs=5e-4)

    def test_large_rho_limit(self, bsc01, uniform2):
        limit = expurgated_ex_limit(bsc01, uniform2)
        assert limit == pytest.approx(-0.5 * math.log(0.6), abs=1e-12)
        assert expurgated_ex(bsc01, uniform2, 1e6) == pytest.approx(limit, abs=1e-3)
        assert limit == pytest.approx(0.2554, abs=1e-3)

    def test_ex_one_equals_e0_one_everywhere(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            dmc, q = random_channel(rng)
            assert expurgated_ex(dmc, q, 1.0) == pytest.approx(
                gallager_e0(dmc, q, 1.0), abs=1e-10)

    def test_concave_and_ratio_monotone(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            dmc, q = random_channel(rng)
            rhos = np.linspace(0.2, 6.0, 30)
            vals = [expurgated_ex(dmc, q, r) for r in rhos]
            mids = [expurgated_ex(dmc, q, 0.5 * (a + b))
                    for a, b in zip(rhos, rhos[2:])]
            for m, lo, hi in zip(mids, vals, vals[2:]):
                assert m >= 0.5 * (lo + hi) - 1e-12
            ratios = [v / r for v, r in zip(vals, rhos)]
            assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


class TestCutoffRate:
    def test_bsc(self, bsc01, uniform2):
        assert cutoff_rate(bsc01, uniform2) == pytest.approx(0.2231, abs=5e-4)

    def test_identity_channel(self, uniform2):
        dmc = Dmc([[1.0, 0.0], [0.0, 1.0]])
        assert cutoff_rate(dmc, uniform2) == pytest.approx(math.log(2), abs=1e-12)

    def test_useless_channel(self, uniform2):
        dmc = Dmc([[0.5, 0.5], [0.5, 0.5]])
        assert cutoff_rate(dmc, uniform2) == pytest.approx(0.0, abs=1e-12)


class TestPairTable:
    def test_edge_exactly_zero_with_full_overlap(self):
        from trellisexp.exponents import _PairTable
        rng = np.random.default_rng(31)
        for _ in range(10):
            dmc, q = random_channel(rng)
            assert _PairTable(dmc, q).rhat0 == 0.0


class TestRateRule:
    def test_same_tolerance_on_every_route(self, bsc01, uniform2):
        from trellisexp.memory import extended_cutoff, extended_exponent, memoryless_lift
        from trellisexp.types_opt import csiszar_exponent
        lift = memoryless_lift(bsc01)
        r0 = cutoff_rate(bsc01, uniform2)
        ext_r0 = extended_cutoff(lift, uniform2)
        routes = [
            lambda r: solve_rho("cex", bsc01, uniform2, r0 + r),
            lambda r: solve_rho("trtc", bsc01, uniform2, r0 + r),
            lambda r: exponent_curve("rtc", bsc01, uniform2, [r0 + r]),
            lambda r: costello_form_cex(bsc01, uniform2, r0 + r),
            lambda r: csiszar_exponent(bsc01, uniform2, r0 + r),
            lambda r: extended_exponent(lift, uniform2, ext_r0 + r),
        ]
        for route in routes:
            route(5e-11)
            with pytest.raises(RateOutOfRange):
                route(2e-10)
            with pytest.raises(RateOutOfRange):
                route(math.nan)


class TestCriticalRate:
    def test_bsc_01(self, bsc01, uniform2):
        assert critical_rate(bsc01, uniform2) == pytest.approx(0.1308, abs=5e-4)

    def test_useless_channel(self, uniform2):
        dmc = Dmc([[0.5, 0.5], [0.5, 0.5]])
        assert critical_rate(dmc, uniform2) == pytest.approx(0.0, abs=1e-10)

    def test_bsc_025_closed_form(self, uniform2):
        # R_crit = ln 2 - H(sqrt(p)/(sqrt(p)+sqrt(1-p))) at p = 0.25
        p = 0.25
        a = math.sqrt(p) / (math.sqrt(p) + math.sqrt(1 - p))
        want = math.log(2) + a * math.log(a) + (1 - a) * math.log(1 - a)
        dmc = Dmc([[1 - p, p], [p, 1 - p]])
        assert critical_rate(dmc, uniform2) == pytest.approx(want, abs=1e-8)


class TestSolveRho:
    def test_trtc_mid_rate(self, bsc01, uniform2):
        sol = solve_rho("trtc", bsc01, uniform2, 0.15)
        assert sol.rho == pytest.approx(1.266, abs=2e-3)
        resid = expurgated_ex(bsc01, uniform2, sol.rho) / (2 * sol.rho - 1) - 0.15
        assert abs(resid) <= 1e-10

    def test_boundary_rho_one(self, bsc01, uniform2):
        r0 = cutoff_rate(bsc01, uniform2)
        assert solve_rho("cex", bsc01, uniform2, r0).rho == pytest.approx(1.0, abs=1e-6)
        assert solve_rho("trtc", bsc01, uniform2, r0).rho == pytest.approx(1.0, abs=1e-6)

    def test_rate_out_of_range(self, bsc01, uniform2):
        with pytest.raises(RateOutOfRange):
            solve_rho("trtc", bsc01, uniform2, 0.5)
        with pytest.raises(RateOutOfRange):
            solve_rho("cex", bsc01, uniform2, 0.0)

    def test_rtc_branch(self, bsc01, uniform2):
        sol = solve_rho("rtc", bsc01, uniform2, 0.25)
        assert 0 < sol.rho < 1
        assert abs(gallager_e0(bsc01, uniform2, sol.rho) / sol.rho - 0.25) <= 1e-10

    def test_rtc_just_below_mutual_information(self, bsc01, uniform2):
        # E0(rho)/rho = I - rho V/2 + O(rho^2), V the information variance;
        # at R = I - 1e-8 a 60-digit solve gives 4.6029748e-8 = 2 delta/V
        p = 0.1
        info = math.log(2) + p * math.log(p) + (1 - p) * math.log(1 - p)
        var = p * (1 - p) * math.log((1 - p) / p) ** 2
        delta = 1e-8
        rho = solve_rho("rtc", bsc01, uniform2, info - delta).rho
        assert rho == pytest.approx(2 * delta / var, rel=1e-6)

    def test_rtc_above_mutual_information(self, bsc01, uniform2):
        p = 0.1
        info = math.log(2) + p * math.log(p) + (1 - p) * math.log(1 - p)
        for rate in (info * (1 + 1e-6), 0.3681):
            with pytest.raises(RateOutOfRange, match="I\\(Q;W\\)"):
                solve_rho("rtc", bsc01, uniform2, rate)

    def test_tiny_rate_finite(self, bsc01, uniform2):
        # rhat0 = 0 for the BSC, so the roots exist at every rate; at
        # R = 1e-7 rho_trtc is about 1.28e6
        sol = solve_rho("trtc", bsc01, uniform2, 1e-7)
        assert sol.rho == pytest.approx(1277064.432, rel=1e-9)
        value = exponent_curve("trtc", bsc01, uniform2, [1e-7]).points[0][1]
        assert value == pytest.approx(2.554128e6, rel=1e-6)
        assert value == pytest.approx(2 * sol.rho - 1, rel=1e-8)
        cex = solve_rho("cex", bsc01, uniform2, 1e-7).rho
        assert math.isfinite(cex) and cex > sol.rho

    def test_root_exists_iff_above_edge(self, uniform2):
        # W has pairs of inputs with disjoint output supports:
        # rhat0 = -1/2 ln QxQ(Z > 0) = 1/2 ln(9/7)
        dmc = Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]])
        q = InputDist(np.full(3, 1 / 3))
        rhat0 = 0.5 * math.log(9 / 7)
        assert cutoff_rate(dmc, q) > 2.02 * rhat0
        assert solve_rho("trtc", dmc, q, 0.99 * rhat0).rho == math.inf
        assert math.isfinite(solve_rho("trtc", dmc, q, 1.01 * rhat0).rho)
        assert solve_rho("cex", dmc, q, 1.99 * rhat0).rho == math.inf
        assert math.isfinite(solve_rho("cex", dmc, q, 2.01 * rhat0).rho)

    @pytest.mark.parametrize("j", range(3, 15))
    def test_cex_exact_just_above_edge(self, j):
        # W4: the Z > 0 off-diagonal pairs share z = sqrt(1/2) with
        # renormalised weight w = 4/7, so g(r) = G(r) - 2 rhat0 =
        # -ln(1 + w (z^r - 1)) and the cex root has a closed form
        from trellisexp.exponents import _PairTable
        dmc = Dmc([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
        q = InputDist(np.full(3, 1 / 3))
        rhat0 = _PairTable(dmc, q).rhat0
        rate = 2 * rhat0 * (1 + 10.0 ** -j)
        r = math.log1p(math.expm1(-(rate - 2 * rhat0)) / (4 / 7)) / math.log(math.sqrt(0.5))
        value = exponent_curve("cex", dmc, q, [rate]).points[0][1]
        assert value == pytest.approx(1 / r, rel=1e-13)


class TestUnitRoot:
    def test_each_end_evaluated_once(self, bsc01, uniform2):
        # a trtc-shaped f with an interior root: brentq is handed f(0) and
        # f(1) and takes the same iterates as a plain call
        from scipy.optimize import brentq
        from trellisexp.exponents import _PairTable, _unit_root
        table = _PairTable(bsc01, uniform2)
        calls = []

        def f(r):
            calls.append(r)
            return table.g(r) - (2 - r) * 0.15

        r = _unit_root(f)
        assert 0 < r < 1
        assert calls.count(0.0) == 1 and calls.count(1.0) == 1
        assert r == brentq(f, 0.0, 1.0, xtol=1e-300, rtol=4 * np.finfo(float).eps,
                           maxiter=2000)


W3 = (Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]]),
      InputDist([1 / 3, 1 / 3, 1 / 3]))


def _root_channels(bsc01, uniform2, asym3):
    rng = np.random.default_rng(11)
    return [(bsc01, uniform2), asym3, W3] + [random_channel(rng, j=3, ny=3)
                                             for _ in range(4)]


class TestUnitRoots:
    """The array form `_unit_roots` against the scalar `_unit_root`."""

    @staticmethod
    def _equations(table, kind, rates):
        """The cex or trtc equation of `_PairTable.rho`, for an array of
        rates and for one rate."""
        if kind == "cex":
            return (lambda r: table.g(r) - (rates - 2 * table.rhat0),
                    lambda rate: lambda r: table.g(r) - (rate - 2 * table.rhat0))
        return (lambda r: table.g(r) - ((2 - r) * (rates - table.rhat0) - r * table.rhat0),
                lambda rate: lambda r: table.g(r) - ((2 - r) * (rate - table.rhat0)
                                                      - r * table.rhat0))

    @pytest.mark.parametrize("kind", ["cex", "trtc"])
    def test_bit_identical_to_scalar_roots(self, kind, bsc01, uniform2, asym3):
        # rates from 1e-300 to past R0: roots clamped at 1 (R >= R0),
        # unbounded ones at 0 (R <= rhat0 for trtc, R <= 2 rhat0 for cex,
        # which the appended rhat0 = 0 of most channels gives) and interior ones
        from trellisexp.exponents import _PairTable, _unit_root, _unit_roots
        for dmc, q in _root_channels(bsc01, uniform2, asym3):
            table = _PairTable(dmc, q)
            rates = np.concatenate([np.geomspace(1e-300, 1e-3, 60),
                                    np.linspace(2e-3, 1.2, 90)]) * table.r0
            rates = np.append(rates, [table.rhat0, 2 * table.rhat0, table.r0])
            vector, scalar = self._equations(table, kind, rates)
            got = _unit_roots(vector, rates.size)
            want = [_unit_root(scalar(rate)) for rate in rates]
            assert got.tolist() == want
            assert {0.0, 1.0} < set(want)  # both clamps and interior roots

    def test_one_and_no_element(self, bsc01, uniform2):
        from trellisexp.exponents import _PairTable, _unit_root, _unit_roots
        table = _PairTable(bsc01, uniform2)
        rates = np.array([0.1])
        vector, scalar = self._equations(table, "trtc", rates)
        assert _unit_roots(vector, 1).tolist() == [_unit_root(scalar(0.1))]
        vector, _ = self._equations(table, "trtc", np.zeros(0))
        assert _unit_roots(vector, 0).shape == (0,)

    def test_g_on_an_array_equals_scalar_calls(self, bsc01, uniform2, asym3):
        from trellisexp.exponents import _PairTable
        r = np.concatenate([np.geomspace(1e-300, 1.0, 40), np.linspace(0, 1, 41)])
        for dmc, q in _root_channels(bsc01, uniform2, asym3):
            table = _PairTable(dmc, q)
            assert table.g(r).tolist() == [table.g(x) for x in r]

    @pytest.mark.parametrize("kind", ["cex", "trtc"])
    def test_few_g_evaluations(self, kind, monkeypatch, bsc01, uniform2, asym3):
        # one array evaluation of G per Brent step for the whole grid
        from trellisexp import exponents
        calls = []

        class Counting(exponents._PairTable):
            def g(self, r):
                calls.append(r)
                return super().g(r)

        monkeypatch.setattr(exponents, "_PairTable", Counting)
        for dmc, q in ((bsc01, uniform2), asym3, W3):
            r0 = cutoff_rate(dmc, q)
            calls.clear()
            exponent_curve(kind, dmc, q, np.linspace(0.05, 0.95, 200) * r0)
            assert len(calls) <= 20


class TestExponentCurve:
    def test_rtimes_rtc_constant(self, bsc01, uniform2):
        r0 = cutoff_rate(bsc01, uniform2)
        curve = exponent_curve("rtimes_rtc", bsc01, uniform2,
                               np.linspace(0.01, 0.2, 10))
        for _, value, _ in curve.points:
            assert value == pytest.approx(r0, abs=1e-12)

    def test_rtimes_trtc_zero_rate_limit(self, bsc01, uniform2):
        curve = exponent_curve("rtimes_trtc", bsc01, uniform2, [1e-4])
        assert curve.points[0][1] == pytest.approx(0.2554, abs=1e-3)

    def test_trtc_identity_two_rho_minus_one(self, bsc01, uniform2):
        curve = exponent_curve("trtc", bsc01, uniform2,
                               np.linspace(0.02, 0.2, 12))
        for rate, value, rho in curve.points:
            # the rho residual tolerance of 1e-10 maps to a value error of
            # about residual * (2 rho - 1) / R, largest at the low-rate end
            assert value == pytest.approx(
                2 * rho - 1, abs=2e-10 * (2 * rho - 1) / rate)

    def test_ordering(self, bsc01, uniform2):
        r0 = cutoff_rate(bsc01, uniform2)
        rates = np.linspace(0.02, r0 - 0.01, 15)
        rtc = exponent_curve("rtc", bsc01, uniform2, rates)
        trtc = exponent_curve("trtc", bsc01, uniform2, rates)
        cex = exponent_curve("cex", bsc01, uniform2, rates)
        for (_, a, _), (_, b, _), (_, c, _) in zip(
                rtc.points, trtc.points, cex.points):
            assert a <= b + 1e-10 <= c + 2e-10
            assert a < b < c  # strict at interior rates for this channel

    def test_rtimes_nonincreasing_and_above_r0(self, bsc01, uniform2):
        r0 = cutoff_rate(bsc01, uniform2)
        rates = np.linspace(0.02, r0 - 0.005, 15)
        for kind in ("rtimes_trtc", "rtimes_cex"):
            vals = [v for _, v, _ in
                    exponent_curve(kind, bsc01, uniform2, rates).points]
            assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))
            assert all(v >= r0 - 1e-10 for v in vals)

    @pytest.mark.parametrize("kind", ["trtc", "cex"])
    def test_value_exact_at_root(self, kind, bsc01, uniform2):
        # at the root Ex(rho)/R is 2 rho - 1 (trtc) or rho (cex) exactly;
        # -rho ln sum QQ' Z^{1/rho} loses digits to cancellation at large rho
        r0 = cutoff_rate(bsc01, uniform2)
        rates = [1e-7, 1e-6] + list(np.linspace(0.01, 0.99, 25) * r0)
        for rate in rates:
            _, value, rho = exponent_curve(kind, bsc01, uniform2, [rate]).points[0]
            want = 2 * rho - 1 if kind == "trtc" else rho
            assert value == pytest.approx(want, rel=1e-14, abs=0)

    def test_bad_grid(self, bsc01, uniform2):
        with pytest.raises(ValueError):
            exponent_curve("trtc", bsc01, uniform2, [0.2, 0.1])
        with pytest.raises(RateOutOfRange):
            exponent_curve("trtc", bsc01, uniform2, [0.3])

    @pytest.mark.parametrize("grid", [0.1, [[0.05, 0.1]]])
    def test_grid_not_one_dimensional(self, grid, bsc01, uniform2):
        with pytest.raises(ValueError, match="one-dimensional"):
            exponent_curve("trtc", bsc01, uniform2, grid)


class TestCostelloForm:
    def test_matches_cex_curve(self, bsc01, uniform2):
        r0 = cutoff_rate(bsc01, uniform2)
        for rate in np.linspace(0.01, r0 - 0.005, 20):
            curve = exponent_curve("cex", bsc01, uniform2, [rate])
            assert costello_form_cex(bsc01, uniform2, rate) == pytest.approx(
                curve.points[0][1], abs=1e-6)

    def test_boundary_r0(self, bsc01, uniform2):
        r0 = cutoff_rate(bsc01, uniform2)
        assert costello_form_cex(bsc01, uniform2, r0) * r0 == pytest.approx(
            r0, abs=1e-6)

    def test_useless_channel_degenerate(self, uniform2):
        dmc = Dmc([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(RateOutOfRange):
            costello_form_cex(dmc, uniform2, 0.1)  # R0 = 0, no valid rate

    def test_guards(self, uniform2):
        dmc3 = Dmc([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        with pytest.raises(NotBinaryInput):
            costello_form_cex(dmc3, InputDist([1 / 3] * 3), 0.05)
        bsc = Dmc([[0.9, 0.1], [0.1, 0.9]])
        with pytest.raises(NotUniformQ):
            costello_form_cex(bsc, InputDist([0.7, 0.3]), 0.05)
