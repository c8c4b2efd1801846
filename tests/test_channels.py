import math

import numpy as np
import pytest

from trellisexp.channels import (
    Dmc,
    InputDist,
    DimensionMismatch,
    NegativeEntry,
    NonStochasticRow,
    bhattacharyya_matrix,
    chernoff_matrix,
    validate_channel,
)
from conftest import random_channel


class TestValidateChannel:
    def test_bsc_valid(self):
        dmc, q = validate_channel([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5])
        assert dmc.num_inputs == 2 and dmc.num_outputs == 2
        assert np.allclose(q.q, [0.5, 0.5])

    def test_identity_degenerate_q_valid(self):
        dmc, q = validate_channel([[1, 0], [0, 1]], [1, 0])
        assert q.q[0] == 1.0

    def test_nonstochastic_row(self):
        with pytest.raises(NonStochasticRow):
            validate_channel([[0.5, 0.4], [0.1, 0.9]], [0.5, 0.5])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate_channel([[1.1, -0.1], [0.5, 0.5]], [0.5, 0.5])

    def test_nan_rejected(self):
        # abs(nan - 1) > tol is False, so the sum checks must test <= instead
        with pytest.raises(NonStochasticRow):
            validate_channel([[math.nan, math.nan], [0.1, 0.9]], [0.5, 0.5])
        with pytest.raises(NonStochasticRow):
            validate_channel([[0.9, 0.1], [0.1, 0.9]], [math.nan, 0.5])

    def test_q_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_channel([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.3, 0.2])

    def test_immutable(self):
        dmc, q = validate_channel([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5])
        with pytest.raises(ValueError):
            dmc.w[0, 0] = 0.0
        with pytest.raises(ValueError):
            q.q[0] = 0.0


def _chernoff(dmc, x, xp, s):
    """d_s(x, x') = -ln sum_y W^{1-s}(y|x) W^s(y|x') of one input pair, the
    oracle of `chernoff_matrix`; inf where the sum is 0 (numpy's 0**0 = 1
    gives d_0 = d_1 = 0)."""
    total = float(np.sum(dmc.w[x] ** (1.0 - s) * dmc.w[xp] ** s))
    return -math.log(total) if total > 0 else math.inf


def _bhattacharyya(dmc, x, xp):
    """Z(x, x') = sum_y sqrt(W(y|x) W(y|x')), the oracle of `bhattacharyya_matrix`."""
    return float(np.sum(np.sqrt(dmc.w[x] * dmc.w[xp])))


class TestChernoffDistance:
    def test_identical_rows_zero(self, bsc01):
        assert np.allclose(np.diag(chernoff_matrix(bsc01, 0.5)), 0.0, atol=1e-12)

    def test_bsc_half(self, bsc01):
        # sum_y sqrt(W(y|0) W(y|1)) = 2 sqrt(0.09) = 0.6
        assert chernoff_matrix(bsc01, 0.5)[0, 1] == pytest.approx(-math.log(0.6), abs=1e-12)

    def test_s_zero_and_one(self):
        # d_0 = d_1 = 0 on every pair, also where supports are disjoint
        for dmc in (Dmc([[0.9, 0.1], [0.1, 0.9]]), Dmc([[1.0, 0.0], [0.0, 1.0]])):
            assert np.allclose(chernoff_matrix(dmc, 0.0), 0.0, atol=1e-12)
            assert np.allclose(chernoff_matrix(dmc, 1.0), 0.0, atol=1e-12)

    def test_disjoint_supports_infinite(self):
        dmc = Dmc([[1.0, 0.0], [0.0, 1.0]])
        assert chernoff_matrix(dmc, 0.5)[0, 1] == math.inf

    def test_s_out_of_range(self, bsc01):
        for s in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                chernoff_matrix(bsc01, s)

    def test_concave_in_s(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dmc, _ = random_channel(rng)
            s = np.sort(rng.random(3))
            mid = 0.5 * (s[0] + s[2])
            ends = 0.5 * (chernoff_matrix(dmc, s[0]) + chernoff_matrix(dmc, s[2]))
            assert np.all(chernoff_matrix(dmc, mid) >= ends - 1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dmc, _ = random_channel(rng)
            s = rng.random()
            assert np.allclose(chernoff_matrix(dmc, s), chernoff_matrix(dmc, 1.0 - s).T,
                               atol=1e-12)


class TestBhattacharyya:
    def test_bsc(self, bsc01):
        assert bhattacharyya_matrix(bsc01)[0, 1] == pytest.approx(0.6, abs=1e-12)

    def test_self_is_one(self):
        rng = np.random.default_rng(13)
        dmc, _ = random_channel(rng, j=3, ny=4)
        assert np.allclose(np.diag(bhattacharyya_matrix(dmc)), 1.0, atol=1e-12)

    def test_disjoint_is_zero(self):
        dmc = Dmc([[1.0, 0.0], [0.0, 1.0]])
        assert bhattacharyya_matrix(dmc)[0, 1] == 0.0

    def test_exp_minus_d_half(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dmc, _ = random_channel(rng)
            assert np.allclose(np.exp(-chernoff_matrix(dmc, 0.5)), bhattacharyya_matrix(dmc),
                               atol=1e-12)


class TestMatrices:
    def test_bhattacharyya_matrix(self):
        rng = np.random.default_rng(17)
        for dmc in (Dmc([[0.9, 0.1], [0.1, 0.9]]), Dmc([[1.0, 0.0], [0.0, 1.0]]),
                    random_channel(rng, j=3, ny=4)[0]):
            z = bhattacharyya_matrix(dmc)
            j = dmc.num_inputs
            want = [[_bhattacharyya(dmc, x, xp) for xp in range(j)] for x in range(j)]
            assert np.allclose(z, want, atol=1e-12) and np.array_equal(z, z.T)

    def test_chernoff_matrix_matches_scalar(self):
        rng = np.random.default_rng(5)
        dmc, _ = random_channel(rng, j=3, ny=4)
        disjoint = Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]])
        for dmc in (dmc, disjoint):
            for s in (0.0, 0.3, 0.5, 1.0):
                d = chernoff_matrix(dmc, s)
                for x in range(3):
                    for xp in range(3):
                        assert d[x, xp] == pytest.approx(_chernoff(dmc, x, xp, s), abs=1e-12)

    def test_chernoff_matrix_infinite_entry(self):
        d = chernoff_matrix(Dmc([[1.0, 0.0], [0.0, 1.0]]), 0.5)
        assert d[0, 1] == math.inf and d[0, 0] == 0.0
