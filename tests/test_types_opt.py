import math

import numpy as np
import pytest

from trellisexp.channels import Dmc, InputDist, chernoff_distance
from trellisexp.exponents import (
    RateOutOfRange,
    cutoff_rate,
    expurgated_ex_limit,
    exponent_curve,
    solve_rho,
)
from trellisexp.types_opt import (
    JointType,
    _legendre_edge,
    csiszar_exponent,
    delta_max,
    delta_s,
    divergence_qq,
    dominant_joint_type,
    z_of_rhat_direct,
    z_of_rhat_legendre,
)
from conftest import random_channel


def random_joint_type(rng, j):
    p = rng.random((j, j)) + 0.01
    return JointType(p / p.sum())


class TestJointType:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointType([[0.6, -0.1], [0.3, 0.2]])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            JointType([[0.5, 0.2], [0.2, 0.2]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            JointType([[math.nan, 0.5], [0.25, 0.25]])


class TestDeltaS:
    def test_diagonal_zero(self, bsc01, uniform2):
        p = JointType(np.diag(uniform2.q))
        assert delta_s(p, bsc01, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_off_diagonal_bsc(self, bsc01):
        p = JointType([[0.0, 0.5], [0.5, 0.0]])
        assert delta_s(p, bsc01, 0.5) == pytest.approx(-math.log(0.6), abs=1e-12)

    def test_s_zero(self, bsc01):
        p = JointType([[0.1, 0.4], [0.3, 0.2]])
        assert delta_s(p, bsc01, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_infinite_distance(self):
        dmc = Dmc([[1.0, 0.0], [0.0, 1.0]])
        p = JointType([[0.0, 0.5], [0.5, 0.0]])
        assert delta_s(p, dmc, 0.5) == math.inf


class TestDeltaMax:
    def test_symmetric_argmax_half(self, bsc01):
        p = JointType([[0.0, 0.5], [0.5, 0.0]])
        value, s = delta_max(p, bsc01)
        assert value == pytest.approx(-math.log(0.6), abs=1e-8)
        assert s == pytest.approx(0.5, abs=1e-4)

    def test_diagonal_tiebreak(self, bsc01, uniform2):
        p = JointType(np.diag(uniform2.q))
        value, s = delta_max(p, bsc01)
        assert value <= 1e-12 and s == 0.5

    def test_asymmetric_vs_grid_oracle(self, asym3):
        dmc, _ = asym3
        rng = np.random.default_rng(41)
        p = random_joint_type(rng, 3)
        value, s = delta_max(p, dmc)
        grid = np.linspace(0.0, 1.0, 10_001)
        oracle = max(delta_s(p, dmc, sv) for sv in grid)
        assert value == pytest.approx(oracle, abs=1e-8)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            dmc, _ = random_channel(rng, j=3)
            p = random_joint_type(rng, 3)
            vt, _ = delta_max(JointType(p.p.T), dmc)
            v, _ = delta_max(p, dmc)
            assert vt == pytest.approx(v, abs=1e-8)

    def test_symmetrization_does_not_increase(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            dmc, q = random_channel(rng, j=3)
            p = random_joint_type(rng, 3)
            sym = JointType(0.5 * (p.p + p.p.T))
            assert delta_max(sym, dmc)[0] <= delta_max(p, dmc)[0] + 1e-8
            assert divergence_qq(sym, q) <= divergence_qq(p, q) + 1e-10


class TestDivergence:
    def test_product_zero(self, uniform2):
        p = JointType(np.full((2, 2), 0.25))
        assert divergence_qq(p, uniform2) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_uniform(self, uniform2):
        p = JointType(np.diag([0.5, 0.5]))
        assert divergence_qq(p, uniform2) == pytest.approx(math.log(2), abs=1e-12)

    def test_unsupported_mass_infinite(self):
        q = InputDist([1.0, 0.0])
        p = JointType([[0.5, 0.0], [0.0, 0.5]])
        assert divergence_qq(p, q) == math.inf


class TestZOfRhat:
    def test_rhat_zero_is_ex_limit(self, bsc01, uniform2):
        want = expurgated_ex_limit(bsc01, uniform2)
        assert z_of_rhat_legendre(bsc01, uniform2, 0.0) == pytest.approx(
            want, abs=1e-10)

    def test_large_rhat_zero_both_forms(self, bsc01, uniform2):
        # for uniform binary Q the threshold is 2 rhat >= ln 2
        rhat = 0.5 * math.log(2) + 0.01
        assert z_of_rhat_legendre(bsc01, uniform2, rhat) == 0.0
        value, p = z_of_rhat_direct(bsc01, uniform2, rhat)
        assert value == 0.0
        assert np.allclose(p.p, np.diag([0.5, 0.5]), atol=1e-12)

    def test_direct_rhat_zero_forces_product(self, bsc01, uniform2):
        value, p = z_of_rhat_direct(bsc01, uniform2, 0.0)
        assert np.allclose(p.p, 0.25, atol=1e-12)
        assert value == pytest.approx(
            delta_s(JointType(np.full((2, 2), 0.25)), bsc01, 0.5), abs=1e-12)

    def test_direct_equals_legendre_at_edge(self):
        # pairs (0,1), (1,0), (1,2), (2,1) have disjoint output supports, so Z
        # is finite from rhat0 = -1/2 ln(5/9) on, and inf below it
        from trellisexp.types_opt import _legendre_edge
        dmc = Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]])
        q = InputDist(np.full(3, 1 / 3))
        rhat0, _ = _legendre_edge(dmc, q)
        assert rhat0 == pytest.approx(0.125657, abs=1e-6)
        zl = z_of_rhat_legendre(dmc, q, rhat0)
        zd, p = z_of_rhat_direct(dmc, q, rhat0)
        assert zl == pytest.approx(0.297063, abs=1e-6)
        assert zd == pytest.approx(zl, abs=1e-12)
        assert divergence_qq(p, q) == pytest.approx(2 * rhat0, abs=1e-12)
        assert z_of_rhat_direct(dmc, q, rhat0 * (1 - 1e-9))[0] == math.inf
        assert z_of_rhat_direct(dmc, q, rhat0 * (1 + 1e-9))[0] == pytest.approx(
            zl, abs=1e-4)

    def test_legendre_vs_grid_oracle(self, bsc01, uniform2):
        from trellisexp.exponents import expurgated_ex
        rhat = cutoff_rate(bsc01, uniform2) / 2
        rhos = np.linspace(1e-6, 50.0, 20_001)
        oracle = max(expurgated_ex(bsc01, uniform2, r) - 2 * r * rhat
                     for r in rhos)
        assert z_of_rhat_legendre(bsc01, uniform2, rhat) == pytest.approx(
            max(oracle, 0.0), abs=1e-6)

    @pytest.mark.parametrize("which", ["bsc", "asym"])
    def test_dual_forms_agree(self, which, bsc01, uniform2, asym3):
        dmc, q = (bsc01, uniform2) if which == "bsc" else asym3
        for rhat in np.linspace(0.0, 0.4, 20):
            zl = z_of_rhat_legendre(dmc, q, rhat)
            zd, _ = z_of_rhat_direct(dmc, q, rhat)
            assert zd == pytest.approx(zl, abs=1e-6)

    def test_tiny_rhat_finite_both_forms(self, bsc01, uniform2):
        # rhat0 = 0 and Z is continuous at 0, with no cap on rho to run into.
        # ln Z is 0 or ln 0.6 with probability 1/2 each under QxQ, so its mean
        # and standard deviation are both z0, and Z(rhat) = z0 (1 - 2 sqrt(rhat))
        # + O(rhat): the maximiser is rho* = 1/(2 sqrt(rhat)), near 1e20 at 1e-40
        z0 = 0.255412811883
        assert z_of_rhat_legendre(bsc01, uniform2, 0.0) == pytest.approx(z0, abs=1e-12)
        for rhat in (1e-40, 3e-14, 2e-14, 1e-14):
            want = z0 * (1 - 2 * math.sqrt(rhat))
            assert z_of_rhat_legendre(bsc01, uniform2, rhat) == pytest.approx(
                want, abs=1e-8)
            assert z_of_rhat_direct(bsc01, uniform2, rhat)[0] == pytest.approx(
                want, abs=1e-8)

    def test_nonincreasing_in_rhat(self, bsc01, uniform2):
        vals = [z_of_rhat_legendre(bsc01, uniform2, rh)
                for rh in np.linspace(0.0, 0.5, 30)]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_min_divergence_plus_delta_is_cutoff(self):
        # unconstrained min over P of D(P||QxQ) + Delta_{1/2}(P) equals R0
        from trellisexp.exponents import _PairTable
        rng = np.random.default_rng(53)
        for _ in range(5):
            dmc, q = random_channel(rng, j=2)
            table = _PairTable(dmc, q)
            best = math.inf
            for rho in np.geomspace(0.05, 50.0, 400):
                p = JointType(table.tilted(1 / rho))
                best = min(best, divergence_qq(p, q) + delta_s(p, dmc, 0.5))
            assert best == pytest.approx(cutoff_rate(dmc, q), abs=1e-6)


W3 = (Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]]),
      InputDist([1 / 3, 1 / 3, 1 / 3]))  # rows 0 and 1 disjoint: rhat0 > 0


@pytest.fixture(params=["bsc", "asym3", "w3"])
def channel(request, bsc01, uniform2, asym3):
    return {"bsc": (bsc01, uniform2), "asym3": asym3, "w3": W3}[request.param]


class TestCsiszarExponent:
    def test_bsc_mid_rate(self, bsc01, uniform2):
        trtc = exponent_curve("trtc", bsc01, uniform2, [0.15]).points[0][1]
        assert csiszar_exponent(bsc01, uniform2, 0.15) == pytest.approx(
            trtc, abs=1e-3)
        assert trtc == pytest.approx(1.54, abs=0.01)

    def test_near_r0_approaches_one(self, bsc01, uniform2):
        r0 = cutoff_rate(bsc01, uniform2)
        assert csiszar_exponent(bsc01, uniform2, r0 - 1e-4) == pytest.approx(
            1.0, abs=2e-3)

    def test_asym_channel(self, asym3):
        dmc, q = asym3
        trtc = exponent_curve("trtc", dmc, q, [0.06]).points[0][1]
        assert csiszar_exponent(dmc, q, 0.06) == pytest.approx(trtc, abs=1e-3)

    def test_rate_out_of_range(self, bsc01, uniform2):
        with pytest.raises(RateOutOfRange):
            csiszar_exponent(bsc01, uniform2, 0.5)

    @pytest.mark.parametrize("rate", [1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-20, 1e-60, 1e-300])
    def test_exact_at_low_rates(self, bsc01, uniform2, rate):
        # the minimiser sits at r = 1/rho_trtc ~ 1e-10 at R = 1e-11, far
        # inside any fixed tolerance in rhat; below R ~ 1e-13 the rounding
        # of D near the rate edge exceeds R's margin, and below ~1e-30 R
        # itself
        trtc = exponent_curve("trtc", bsc01, uniform2, [rate]).points[0][1]
        assert csiszar_exponent(bsc01, uniform2, rate) == pytest.approx(trtc, rel=1e-12)

    def test_equals_trtc_below_r0(self, channel):
        dmc, q = channel
        rates = cutoff_rate(dmc, q) * np.linspace(0.0, 1.0, 27)[1:-1]
        for rate, trtc, _ in exponent_curve("trtc", dmc, q, rates).points:
            got = csiszar_exponent(dmc, q, rate)
            if trtc == math.inf:
                assert got == math.inf
            else:
                assert got == pytest.approx(trtc, rel=1e-13)

    def test_equals_trtc_just_above_rhat0(self):
        # the inputs never share an output, so R0 = 2 rhat0 and trtc is
        # finite, and huge, for every R > rhat0: both routes must use that
        # one rule at the edge
        dmc, q = Dmc([[0.0, 1.0], [1.0, 0.0]]), InputDist([3 / 7, 4 / 7])
        rhat0 = _legendre_edge(dmc, q)[0]
        rates = [cutoff_rate(dmc, q) / 2]
        rates += [rhat0 * (1 + f) for f in (1e-12, 1e-10, 1e-9)]
        for rate, trtc, _ in exponent_curve("trtc", dmc, q, rates).points:
            assert trtc < math.inf
            assert csiszar_exponent(dmc, q, rate) == pytest.approx(trtc, rel=1e-12)
        assert exponent_curve("trtc", dmc, q, [rhat0]).points[0][1] == math.inf
        assert csiszar_exponent(dmc, q, rhat0) == math.inf

    def test_equals_trtc_near_rhat0_where_d_varies(self):
        # on W3, D grows along the tilted family, and most of [0, 2R/R0]
        # lies where D >= 2R near rhat0; the chord bound on r* keeps the
        # search off that region
        dmc, q = W3
        rhat0 = _legendre_edge(dmc, q)[0]
        rates = [rhat0 * (1 + f) for f in (1e-3, 1e-2, 1e-1)]
        for rate, trtc, _ in exponent_curve("trtc", dmc, q, rates).points:
            assert csiszar_exponent(dmc, q, rate) == pytest.approx(trtc, rel=1e-11)

    @pytest.mark.parametrize("j", range(3, 15))
    def test_equals_trtc_just_above_rhat0_where_d_varies(self, j):
        # both routes measure the rate from the edge, so neither cancels
        # R against rhat0
        dmc, q = W3
        rate = _legendre_edge(dmc, q)[0] * (1 + 10.0 ** -j)
        trtc = exponent_curve("trtc", dmc, q, [rate]).points[0][1]
        assert csiszar_exponent(dmc, q, rate) == pytest.approx(trtc, rel=1e-12)

    def test_dominant_type_attains_minimum(self, channel):
        # D and Delta of P* come from the type itself, not from G
        dmc, q = channel
        for rate in cutoff_rate(dmc, q) * np.linspace(0.05, 0.95, 19):
            rho = solve_rho("trtc", dmc, q, rate).rho
            got = csiszar_exponent(dmc, q, rate)
            if rho == math.inf:
                assert got == math.inf
                continue
            p = dominant_joint_type(dmc, q, rho).p_star
            div, delta = divergence_qq(p, q), delta_s(p, dmc, 0.5)
            assert got == pytest.approx((delta + div / 2) / (rate - div / 2), rel=1e-8)

    def test_few_g_evaluations(self, monkeypatch, bsc01, uniform2, asym3):
        from trellisexp import types_opt
        calls = []

        class Counting(types_opt._PairTable):
            def g(self, r):
                calls.append(r)
                return super().g(r)

        monkeypatch.setattr(types_opt, "_PairTable", Counting)
        for dmc, q in ((bsc01, uniform2), asym3, W3):
            r0 = cutoff_rate(dmc, q)
            for rate in (1e-300, 1e-60, 1e-20, 1e-11, 1e-7, 1e-3,
                         0.1 * r0, 0.5 * r0, 0.9 * r0, r0):
                calls.clear()
                csiszar_exponent(dmc, q, rate)
                assert len(calls) <= 60


class TestDominantJointType:
    def test_bsc_rho_one(self, bsc01, uniform2):
        ev = dominant_joint_type(bsc01, uniform2, 1.0)
        assert np.allclose(ev.p_star.p,
                           [[0.3125, 0.1875], [0.1875, 0.3125]], atol=1e-10)

    def test_large_rho_product(self, bsc01, uniform2):
        ev = dominant_joint_type(bsc01, uniform2, 1e6)
        assert np.allclose(ev.p_star.p, 0.25, atol=1e-5)

    def test_small_rho_diagonal(self, bsc01, uniform2):
        ev = dominant_joint_type(bsc01, uniform2, 1e-3)
        assert np.allclose(ev.p_star.p, np.diag([0.5, 0.5]), atol=1e-9)

    # rho = rho_trtc(R) on W3 at R = rhat0 (1 + 1e-14), (1 + 1e-6) and (1 + 0.1),
    # and the factor 2R/(2R - D) at that rho from an 80-digit evaluation
    @pytest.mark.parametrize("rho,factor", [
        (169223373100997.8, 100606183605220.3842478),
        (1682037.8969856044, 1000001.058659654928895),
        (17.2242559655313, 11.06163038584005977039),
    ])
    def test_factor_accurate_near_the_edge(self, rho, factor):
        ev = dominant_joint_type(*W3, rho)
        assert ev.critical_length_factor == pytest.approx(factor, rel=1e-13)

    def test_factor_undefined_at_or_below_half(self, bsc01, uniform2):
        for rho in (0.5, 0.25):
            ev = dominant_joint_type(bsc01, uniform2, rho)
            assert math.isnan(ev.rate) and math.isnan(ev.critical_length_factor)

    def test_symmetric_and_factor_at_least_one(self, bsc01, uniform2):
        for rho in (1.0, 1.5, 3.0):
            ev = dominant_joint_type(bsc01, uniform2, rho)
            assert np.allclose(ev.p_star.p, ev.p_star.p.T, atol=1e-12)
            assert ev.critical_length_factor >= 1.0
