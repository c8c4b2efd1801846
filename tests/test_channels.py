import math

import numpy as np
import pytest

from trellisexp.channels import (
    Dmc,
    InputDist,
    DimensionMismatch,
    NegativeEntry,
    NonStochasticRow,
    bhattacharyya,
    bhattacharyya_matrix,
    chernoff_distance,
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


class TestChernoffDistance:
    def test_identical_rows_zero(self, bsc01):
        assert chernoff_distance(bsc01, 0, 0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_bsc_half(self, bsc01):
        # sum_y sqrt(W(y|0) W(y|1)) = 2 sqrt(0.09) = 0.6
        assert chernoff_distance(bsc01, 0, 1, 0.5) == pytest.approx(
            -math.log(0.6), abs=1e-12)

    def test_s_zero_and_one(self, bsc01):
        assert chernoff_distance(bsc01, 0, 1, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert chernoff_distance(bsc01, 1, 0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports_infinite(self):
        dmc = Dmc([[1.0, 0.0], [0.0, 1.0]])
        assert chernoff_distance(dmc, 0, 1, 0.5) == math.inf

    def test_s_out_of_range(self, bsc01):
        with pytest.raises(ValueError):
            chernoff_distance(bsc01, 0, 1, 1.5)

    def test_concave_in_s(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dmc, _ = random_channel(rng)
            x, xp = 0, 1
            s = np.sort(rng.random(3))
            mid = 0.5 * (s[0] + s[2])
            d = lambda sv: chernoff_distance(dmc, x, xp, sv)
            assert d(mid) >= 0.5 * (d(s[0]) + d(s[2])) - 1e-12

    def test_swap_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dmc, _ = random_channel(rng)
            s = rng.random()
            for x in range(dmc.num_inputs):
                for xp in range(dmc.num_inputs):
                    assert chernoff_distance(dmc, x, xp, s) == pytest.approx(
                        chernoff_distance(dmc, xp, x, 1.0 - s), abs=1e-12)


class TestBhattacharyya:
    def test_bsc(self, bsc01):
        assert bhattacharyya(bsc01, 0, 1) == pytest.approx(0.6, abs=1e-12)

    def test_self_is_one(self, bsc01):
        assert bhattacharyya(bsc01, 0, 0) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_is_zero(self):
        dmc = Dmc([[1.0, 0.0], [0.0, 1.0]])
        assert bhattacharyya(dmc, 0, 1) == 0.0

    def test_exp_minus_d_half(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dmc, _ = random_channel(rng)
            for x in range(dmc.num_inputs):
                for xp in range(dmc.num_inputs):
                    assert math.exp(-chernoff_distance(dmc, x, xp, 0.5)) == (
                        pytest.approx(bhattacharyya(dmc, x, xp), abs=1e-12))


class TestMatrices:
    def test_bhattacharyya_matrix(self, bsc01):
        z = bhattacharyya_matrix(bsc01)
        assert np.allclose(z, [[1.0, 0.6], [0.6, 1.0]], atol=1e-12)

    def test_chernoff_matrix_matches_scalar(self):
        rng = np.random.default_rng(5)
        dmc, _ = random_channel(rng, j=3, ny=4)
        d = chernoff_matrix(dmc, 0.3)
        for x in range(3):
            for xp in range(3):
                assert d[x, xp] == pytest.approx(
                    chernoff_distance(dmc, x, xp, 0.3), abs=1e-12)

    def test_chernoff_matrix_infinite_entry(self):
        d = chernoff_matrix(Dmc([[1.0, 0.0], [0.0, 1.0]]), 0.5)
        assert d[0, 1] == math.inf and d[0, 0] == 0.0
