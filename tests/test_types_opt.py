import math

import numpy as np
import pytest

from trellisexp.channels import Dmc, InputDist, chernoff_distance
from trellisexp.exponents import (
    RateOutOfRange,
    cutoff_rate,
    expurgated_ex_limit,
    exponent_curve,
)
from trellisexp.types_opt import (
    JointType,
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
        from trellisexp.types_opt import _tilted_type
        rng = np.random.default_rng(53)
        for _ in range(5):
            dmc, q = random_channel(rng, j=2)
            best = math.inf
            for rho in np.geomspace(0.05, 50.0, 400):
                p = JointType(_tilted_type(dmc, q, rho))
                best = min(best, divergence_qq(p, q) + delta_s(p, dmc, 0.5))
            assert best == pytest.approx(cutoff_rate(dmc, q), abs=1e-6)


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

    def test_symmetric_and_factor_at_least_one(self, bsc01, uniform2):
        for rho in (1.0, 1.5, 3.0):
            ev = dominant_joint_type(bsc01, uniform2, rho)
            assert np.allclose(ev.p_star.p, ev.p_star.p.T, atol=1e-12)
            assert ev.critical_length_factor >= 1.0
