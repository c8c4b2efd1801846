import itertools
import math

import numpy as np
import pytest

from trellisexp.channels import Dmc, InputDist
from trellisexp.memory import MarkovChannel, lift_memory, memoryless_lift
from trellisexp.sim import (
    DECODE_BATCH,
    EnsembleConfig,
    EnumerationBudgetExceeded,
    LengthMismatch,
    _batch,
    _block_windows,
    _deviation_patterns,
    _digits,
    _key_layout,
    _log_metric,
    _rng,
    encode,
    enumerate_pair_types,
    estimate_error_exponent,
    sample_code,
    transmit,
    typicality_audit,
    typicality_check,
    typicality_union_bound,
    viterbi_decode,
)

IDENTITY = Dmc([[1.0, 0.0], [0.0, 1.0]])
UNIFORM2 = InputDist([0.5, 0.5])


class TestConfig:
    def test_default_l(self):
        cfg = EnsembleConfig(m=1, n=2, k=4)
        assert cfg.L == 400
        assert cfg.constraint_length == 4
        assert cfg.num_states == 8
        assert cfg.rate_nats == pytest.approx(0.5 * math.log(2))

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            EnsembleConfig(m=0, n=2, k=2)


class TestSampleCode:
    def test_deterministic(self):
        cfg = EnsembleConfig(m=1, n=2, k=3, L=10, seed=42)
        a = sample_code(cfg, j=2, q=UNIFORM2)
        b = sample_code(cfg, j=2, q=UNIFORM2)
        assert np.array_equal(a.labels, b.labels)
        c = sample_code(cfg, j=2, q=UNIFORM2, code_index=1)
        assert not np.array_equal(a.labels, c.labels)

    def test_linear_zero_input_gives_offsets(self):
        cfg = EnsembleConfig(m=1, n=2, k=3, L=5, seed=9, linear=True)
        code = sample_code(cfg, j=2)
        out = encode(code, np.zeros(5, dtype=np.int8))
        assert np.array_equal(out.reshape(-1, 2), code.offsets)

    def test_linear_requires_binary(self):
        cfg = EnsembleConfig(m=1, n=2, k=2, L=5, seed=1, linear=True)
        with pytest.raises(ValueError):
            sample_code(cfg, j=3)

    def test_label_frequency_matches_q(self):
        cfg = EnsembleConfig(m=2, n=2, k=3, L=200, seed=5)
        q = InputDist([0.7, 0.3])
        code = sample_code(cfg, j=2, q=q)
        freq = np.mean(code.labels == 0)
        n = code.labels.size
        sigma = math.sqrt(0.7 * 0.3 / n)
        assert abs(freq - 0.7) < 3 * sigma


class TestEncode:
    def test_length(self):
        cfg = EnsembleConfig(m=1, n=2, k=3, L=6, seed=0)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        out = encode(code, np.zeros(6, dtype=np.int8))
        assert out.shape == (2 * (6 + 2),)

    def test_length_mismatch(self):
        cfg = EnsembleConfig(m=1, n=2, k=3, L=6, seed=0)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        with pytest.raises(LengthMismatch):
            encode(code, np.zeros(5, dtype=np.int8))

    @pytest.mark.parametrize("shape", [(2, 5), (3, 7), (2, 2, 10)])
    def test_batch_must_be_rows_of_m_l_bits(self, shape):
        # m*L = 10: a batch is (B, 10); two 5-bit rows are not one message
        cfg = EnsembleConfig(m=1, n=2, k=2, L=10, seed=0)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        with pytest.raises(LengthMismatch):
            encode(code, np.zeros(shape, dtype=np.int8))

    def test_affine_linearity(self):
        cfg = EnsembleConfig(m=1, n=2, k=3, L=8, seed=13, linear=True)
        code = sample_code(cfg, j=2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            u1 = rng.integers(0, 2, 8).astype(np.int8)
            u2 = rng.integers(0, 2, 8).astype(np.int8)
            x0 = encode(code, np.zeros(8, dtype=np.int8))
            lhs = (encode(code, u1) + encode(code, u2) + x0) % 2
            assert np.array_equal(lhs, encode(code, (u1 + u2) % 2))

    def test_single_block_flip_touches_at_most_k_branches(self):
        cfg = EnsembleConfig(m=1, n=2, k=3, L=10, seed=21, linear=True)
        code = sample_code(cfg, j=2)
        u = np.zeros(10, dtype=np.int8)
        v = u.copy()
        v[4] = 1
        diff = (encode(code, u) != encode(code, v)).reshape(-1, 2).any(axis=1)
        assert diff.sum() <= 3

    def test_block_windows_match_loop(self):
        # reference: shift each block into the top of a K-bit register
        rng = np.random.default_rng(6)
        for _ in range(40):
            m, k = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            b, t_total = int(rng.integers(1, 5)), int(rng.integers(1, 12))
            cfg = EnsembleConfig(m=m, n=1, k=k, L=1)
            blocks = rng.integers(0, 1 << m, size=(b, t_total))
            want = np.zeros((b, t_total), dtype=np.int64)
            acc = np.zeros(b, dtype=np.int64)
            for t in range(t_total):
                acc = ((acc >> m) | (blocks[:, t] << (m * (k - 1)))) & ((1 << m * k) - 1)
                want[:, t] = acc
            assert np.array_equal(_block_windows(blocks, cfg), want)


class TestTransmit:
    def test_identity_channel(self):
        rng = _rng(0, 0)
        x = rng.integers(0, 2, 100)
        assert np.array_equal(transmit(IDENTITY, x, rng), x)

    def test_bsc_flip_fraction(self):
        dmc = Dmc([[0.9, 0.1], [0.1, 0.9]])
        rng = _rng(1, 0)
        x = np.zeros(1_000_000, dtype=np.int64)
        y = transmit(dmc, x, rng)
        frac = y.mean()
        sigma = math.sqrt(0.1 * 0.9 / x.size)
        assert abs(frac - 0.1) < 3 * sigma

    def test_markov_batch_rows_start_from_zero(self):
        # y = x_prev: the first output of every row sees x_prev = 0
        w = np.zeros((2, 2, 2))
        w[:, 0, 0] = w[:, 1, 1] = 1.0
        y = transmit(MarkovChannel(w), np.array([[1, 1, 1], [0, 0, 0]]), _rng(0, 0))
        assert np.array_equal(y, [[0, 1, 1], [0, 0, 0]])

    def test_last_output_reached_at_u_below_one(self):
        # the cumulative sums of these rows end 2.2e-16 short of 1
        row = [0.02594467158518534, 0.21986429110201317,
               0.39611424082905455, 0.35807679648374696]

        class TopDraw:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        y = transmit(Dmc([row, row[::-1]]), np.array([0, 1, 1, 0]), TopDraw())
        assert np.array_equal(y, [3, 3, 3, 3])

    @pytest.mark.parametrize("name", ["bsc", "asym3"])
    def test_dmc_draws_as_its_memoryless_lift(self, name, bsc01, asym3):
        dmc = {"bsc": bsc01, "asym3": asym3[0]}[name]
        x = _rng(2, 0).integers(0, dmc.num_inputs, size=(64, 406))
        assert np.array_equal(transmit(dmc, x, _rng(3, 0)),
                              transmit(memoryless_lift(dmc), x, _rng(3, 0)))


class TestViterbi:
    def test_noiseless_recovery(self):
        cfg = EnsembleConfig(m=1, n=3, k=3, L=20, seed=33)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        rng = _rng(2, 0)
        info = rng.integers(0, 2, 20).astype(np.int8)
        y = encode(code, info)  # identity channel: y = x
        dec = viterbi_decode(code, IDENTITY, y)
        assert np.array_equal(dec, info)

    @pytest.mark.parametrize("k", [1, 2])
    def test_noiseless_recovery_256_inputs(self, k):
        # 2^8 predecessors per state: the choice index no longer fits an int8
        cfg = EnsembleConfig(m=8, n=12, k=k, L=3, seed=1)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        info = _rng(7, 0).integers(0, 2, size=(5, 24), dtype=np.int8)
        assert np.array_equal(viterbi_decode(code, IDENTITY, encode(code, info)), info)

    def test_exhaustive_oracle(self, bsc01):
        logw = np.log(bsc01.w)
        rng = _rng(3, 0)
        wins = 0
        for trial in range(200):
            k = int(rng.integers(1, 4))
            L = int(rng.integers(2, 7))
            cfg = EnsembleConfig(m=1, n=2, k=k, L=L, seed=trial)
            code = sample_code(cfg, j=2, q=UNIFORM2)
            info = rng.integers(0, 2, L).astype(np.int8)
            y = transmit(bsc01, encode(code, info), rng)
            dec = viterbi_decode(code, bsc01, y)
            best = max(
                logw[encode(code, np.array(c, dtype=np.int8)), y].sum()
                for c in itertools.product([0, 1], repeat=L))
            got = logw[encode(code, dec), y].sum()
            wins += abs(got - best) < 1e-9
        assert wins == 200

    @pytest.mark.parametrize("m,n,k,L,channel,metric", [
        (2, 2, 2, 3, "bsc", "bsc"),
        (2, 3, 3, 3, "bsc", "bsc"),
        (1, 2, 1, 8, "bsc", "bsc"),
        (1, 2, 4, 6, "bsc", "bsc"),
        (1, 2, 3, 6, "asym3", "asym3"),
        (2, 2, 2, 3, "asym3", "asym3"),
        (1, 2, 3, 6, "zeros", "zeros"),
        (1, 3, 2, 6, "zeros", "zeros"),
        (1, 2, 3, 6, "binary3", "mismatched"),
        (2, 2, 2, 3, "binary3", "mismatched"),
    ])
    def test_exhaustive_oracle_wider(self, m, n, k, L, channel, metric, bsc01, asym3):
        zeros = Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]])
        binary3 = Dmc([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
        channels = {"bsc": bsc01, "asym3": asym3[0], "zeros": zeros, "binary3": binary3}
        # a (J, Y) = (2, 3) metric matrix that is not the channel
        metrics = dict(channels, mismatched=np.array([[0.5, 0.4, 0.1], [0.3, 0.3, 0.4]]))
        ch = channels[channel]
        logw = _log_metric(metrics[metric])
        every = np.array(list(itertools.product([0, 1], repeat=m * L)), dtype=np.int8)
        rng = _rng(5, m, k)
        for trial in range(10):
            cfg = EnsembleConfig(m=m, n=n, k=k, L=L, seed=trial)
            code = sample_code(cfg, j=ch.num_inputs, code_index=trial)
            info = rng.integers(0, 2, size=(4, m * L), dtype=np.int8)
            ys = transmit(ch, encode(code, info), rng)
            dec = viterbi_decode(code, metrics[metric], ys)
            all_x = encode(code, every)
            for y, d in zip(ys, dec):
                best = logw[all_x, y].sum(axis=1).max()
                assert np.isfinite(best)
                assert logw[encode(code, d), y].sum() == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("m,k", [(1, 1), (1, 3), (2, 1), (2, 3), (1, 5)])
    def test_ties_pick_smaller_predecessor(self, m, k):
        # every path has the same metric, so each state keeps its smallest
        # predecessor and the traceback from state 0 stays on the zero path
        useless = Dmc([[0.5, 0.5], [0.5, 0.5]])
        cfg = EnsembleConfig(m=m, n=2, k=k, L=12, seed=4)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        rng = _rng(6, 0)
        info = rng.integers(0, 2, size=(8, m * 12), dtype=np.int8)
        dec = viterbi_decode(code, useless, transmit(useless, encode(code, info), rng))
        assert not dec.any()

    def test_batch_equals_single(self, bsc01):
        cfg = EnsembleConfig(m=1, n=2, k=3, L=10, seed=8)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        rng = _rng(4, 0)
        ys = np.stack([
            transmit(bsc01, encode(code, rng.integers(0, 2, 10).astype(np.int8)),
                     rng)
            for _ in range(8)])
        batch = viterbi_decode(code, bsc01, ys)
        singles = np.stack([viterbi_decode(code, bsc01, y) for y in ys])
        assert np.array_equal(batch, singles)

    def test_three_dim_batch_rejected(self, bsc01):
        cfg = EnsembleConfig(m=1, n=2, k=2, L=10, seed=8)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        ys = np.zeros((2, 2, cfg.n * cfg.num_branches), dtype=np.int64)
        with pytest.raises(LengthMismatch):
            viterbi_decode(code, bsc01, ys)

    def test_memory_channel_metric_rejected(self, bsc01):
        cfg = EnsembleConfig(m=1, n=2, k=2, L=5, seed=1)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        ch = memoryless_lift(bsc01)
        y = np.zeros(cfg.n * cfg.num_branches, dtype=np.int64)
        with pytest.raises(TypeError, match=r"Dmc or a \(J, Y\) matrix"):
            viterbi_decode(code, ch, y)
        with pytest.raises(TypeError, match=r"Dmc or a \(J, Y\) matrix"):
            estimate_error_exponent(code, ch, 1, _rng(1, 0, 1))


class TestEstimate:
    def test_identity_channel_no_errors(self):
        # n = 8 keeps the chance of two messages sharing a codeword negligible
        cfg = EnsembleConfig(m=1, n=8, k=2, L=50, seed=0)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        est = estimate_error_exponent(code, IDENTITY, 20, _rng(0, 0, 1))
        assert est.no_errors
        assert est.p_e == pytest.approx(1.0 - 0.05 ** (1 / est.nodes), abs=1e-15)
        assert est.exponent > 0

    def test_useless_channel_exponent_near_zero(self):
        dmc = Dmc([[0.5, 0.5], [0.5, 0.5]])
        cfg = EnsembleConfig(m=1, n=2, k=2, L=50, seed=1)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        est = estimate_error_exponent(code, dmc, 50, _rng(1, 0, 1))
        assert est.p_e > 0.1
        assert est.exponent < 1.2

    def test_wilson_contains_point(self, bsc01):
        cfg = EnsembleConfig(m=1, n=4, k=3, L=100, seed=2)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        est = estimate_error_exponent(code, bsc01, 100, _rng(2, 0, 1))
        assert est.wilson_low <= est.p_e <= est.wilson_high

    @pytest.mark.parametrize("m,k", [(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4)])
    def test_event_count_matches_per_node_loop(self, m, k):
        # replay the estimator's random stream; a first event at node t is
        # a differing block t whose k-1 previous blocks agree
        channel = Dmc([[0.8, 0.2], [0.2, 0.8]])
        cfg = EnsembleConfig(m=m, n=2, k=k, L=12, seed=41)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        trials = DECODE_BATCH + 44  # two batches
        got = estimate_error_exponent(code, channel, trials, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        want = done = 0
        while done < trials:
            b = min(DECODE_BATCH, trials - done)
            info = rng.integers(0, 2, size=(b, m * cfg.L), dtype=np.int8)
            dec = viterbi_decode(code, channel, transmit(channel, encode(code, info), rng))
            differ = (info != dec).reshape(b, cfg.L, m).any(axis=2)
            for row in differ.tolist():
                for t in range(cfg.L):
                    if row[t] and not any(row[max(0, t - k + 1):t]):
                        want += 1
            done += b
        assert got.events == want > 0

    def test_jensen_ordering(self, bsc01):
        # mean(-ln p)/K >= -ln(mean p)/K exactly, by concavity of -ln
        cfg = EnsembleConfig(m=1, n=2, k=3, L=100, seed=3)
        ps = []
        for i in range(8):
            code = sample_code(cfg, j=2, q=UNIFORM2, code_index=i)
            est = estimate_error_exponent(code, bsc01, 30, _rng(3, i, 1))
            ps.append(est.p_e)
        K = cfg.constraint_length
        mean_of_logs = np.mean([-math.log(p) / K for p in ps])
        log_of_mean = -math.log(np.mean(ps)) / K
        assert mean_of_logs >= log_of_mean


class TestPairTypes:
    def test_deviation_pattern_counts(self):
        # k = 2: interior zero blocks are forbidden entirely
        assert _deviation_patterns(1, 2, 1) == [(1, 1)]
        assert len(_deviation_patterns(2, 2, 1)) == 1  # (1, 1, 1)
        # k = 3 allows single interior zeros
        assert len(_deviation_patterns(2, 3, 1)) == 2  # (1,0,1), (1,1,1)
        # the analytic bound is never exceeded
        for k in (2, 3):
            for l in range(1, 5):
                assert len(_deviation_patterns(l, k, 1)) <= 2 ** l

    @pytest.mark.parametrize("m", [1, 2])
    def test_patterns_match_state_walk(self, m):
        # reference without windows: walk the states (d_{i-1}, ..., d_{i-k+1})
        # of each candidate (d_i = 0 outside 0..l); valid iff d_0 != 0, the
        # states at nodes 1..k+l-1 are nonzero and the state at k+l is zero
        for k in range(1, 6):
            for l in range(6):
                want = []
                for rev in itertools.product(range(1 << m), repeat=l + 1):
                    d = rev[::-1] + (0,) * k  # d_0 least significant
                    states = [any(d[i - b] for b in range(1, k) if i - b >= 0)
                              for i in range(k + l + 1)]
                    if d[0] and all(states[1:k + l]) and not states[k + l]:
                        want.append(d[:l + 1])
                assert _deviation_patterns(l, k, m) == want, (k, l)

    @pytest.mark.parametrize("m", [1, 2])
    def test_k1_has_no_unmerged_extensions(self, m):
        # one state: every path remerges one branch after it diverges
        cfg = EnsembleConfig(m=m, n=2, k=1, L=20, seed=3)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        table = enumerate_pair_types(code, l_max=2)
        assert table.entries == {} and table.pair_totals == {1: 0, 2: 0}
        assert typicality_check(code, UNIFORM2, 0.3, l_max=2, table=table).is_typical

    def test_k1_builds_no_windows(self):
        # with no patterns the budget (windows x patterns = 0) never trips,
        # so nothing may be built: the windows of l = 16 alone fill ~100 MiB
        import tracemalloc
        cfg = EnsembleConfig(m=1, n=2, k=1, L=40, seed=3)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        tracemalloc.start()
        try:
            table = enumerate_pair_types(code, l_max=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.entries == {} and table.pair_totals == dict.fromkeys(range(1, 17), 0)
        assert peak < 1 << 20

    def test_partition_identity(self):
        cfg = EnsembleConfig(m=1, n=2, k=2, L=20, seed=5)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        table = enumerate_pair_types(code, l_max=3)
        for l, total in table.pair_totals.items():
            counted = sum(c for (l2, _), c in table.entries.items() if l2 == l)
            assert counted == total

    def test_type_sums(self):
        cfg = EnsembleConfig(m=1, n=2, k=2, L=20, seed=5)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        table = enumerate_pair_types(code, l_max=3)
        for (l, key), _ in table.entries.items():
            assert sum(key) == cfg.n * (cfg.k + l)

    def test_fixed_message_mode(self):
        cfg = EnsembleConfig(m=1, n=2, k=2, L=20, seed=5)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        table = enumerate_pair_types(code, l_max=2,
                                     fixed_message=np.zeros(10, dtype=int))
        assert table.pair_totals[1] == 1

    def test_budget(self, monkeypatch):
        from trellisexp import sim
        monkeypatch.setattr(sim, "ENUM_BUDGET", 1000)  # read at each call
        cfg = EnsembleConfig(m=1, n=2, k=2, L=40, seed=5)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_pair_types(code, l_max=12)

    @pytest.mark.parametrize("L,kwargs,error", [
        # k = 2, m = 1: one pattern per l and 2^(l+3) windows, so the pair
        # totals are 16, 32, 64 and l = 3 alone breaks a budget of 40
        (40, {"budget": 40}, EnumerationBudgetExceeded),
        (5, {}, ValueError),  # L >= 2k + l - 1 fails at l = 3
        (40, {"fixed_message": np.zeros(5, dtype=int)}, LengthMismatch),
        (40, {"fixed_message": np.full(12, 2)}, ValueError),  # a block outside [0, 2)
    ])
    def test_every_check_before_any_build(self, monkeypatch, L, kwargs, error):
        from trellisexp import sim
        counted = []
        real = sim._pair_keys

        def counting(code, l, *args):
            counted.append(l)
            return real(code, l, *args)

        monkeypatch.setattr(sim, "_pair_keys", counting)
        kwargs = dict(kwargs)  # a "budget" is set as sim.ENUM_BUDGET
        monkeypatch.setattr(sim, "ENUM_BUDGET", kwargs.pop("budget", sim.ENUM_BUDGET))
        code = sample_code(EnsembleConfig(m=1, n=2, k=2, L=L, seed=5), j=2, q=UNIFORM2)
        with pytest.raises(error, match=r"l=3|6 blocks|in \[0, 2\)"):
            enumerate_pair_types(code, l_max=3, **kwargs)
        assert counted == []

    @pytest.mark.parametrize("m,block", [(1, -1), (1, 0.7), (1, 2), (2, 4), (2, -1)])
    def test_fixed_message_blocks_in_range(self, m, block):
        # a negative block would read a window from the end of a table, a
        # fraction would be truncated, and 2^m would index past it
        code = sample_code(EnsembleConfig(m=m, n=2, k=3, L=12, seed=5), j=2, q=UNIFORM2)
        message = [1] * 11 + [block]
        with pytest.raises(ValueError, match="fixed message blocks"):
            enumerate_pair_types(code, l_max=2, fixed_message=message)
        message[-1] = (1 << m) - 1
        assert enumerate_pair_types(code, l_max=2, fixed_message=message).pair_totals

    def test_negative_l_max_rejected(self):
        code = sample_code(EnsembleConfig(m=1, n=2, k=2, L=20, seed=5), j=2, q=UNIFORM2)
        with pytest.raises(ValueError, match="l_max"):
            enumerate_pair_types(code, l_max=-1)

    def test_large_alphabet_no_diagonal_types(self):
        # with J large, branch-label collisions on diverged spans are unlikely,
        # so types with all mass on the diagonal should not appear
        cfg = EnsembleConfig(m=1, n=2, k=2, L=10, seed=7)
        q = InputDist(np.full(16, 1 / 16))
        code = sample_code(cfg, j=16, q=q)
        table = enumerate_pair_types(code, l_max=1)
        diag_cells = [i * 16 + i for i in range(16)]
        for (l, key), count in table.entries.items():
            on_diag = sum(key[i] for i in diag_cells)
            assert on_diag < sum(key)


class TestTypicality:
    def test_huge_epsilon_typical(self):
        cfg = EnsembleConfig(m=1, n=2, k=2, L=20, seed=11)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        rep = typicality_check(code, UNIFORM2, epsilon=10.0, l_max=3)
        assert rep.is_typical

    def test_union_bound_decreases_in_k(self):
        bounds = [typicality_union_bound(EnsembleConfig(m=1, n=2, k=k, L=10),
                                         2, 0.3)
                  for k in (3, 4, 5, 6)]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_union_bound_inf_unless_converged(self):
        # the series diverges at eps = 0 and is still growing after
        # UNION_TAIL_TERMS terms at eps = 0.001
        cfg = EnsembleConfig(m=1, n=2, k=3, L=10)
        assert typicality_union_bound(cfg, 2, 0.0) == math.inf
        assert typicality_union_bound(cfg, 2, 0.001) == math.inf
        assert typicality_union_bound(cfg, 2, 0.3) == pytest.approx(36981.61984374667, rel=1e-15)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        code = sample_code(EnsembleConfig(m=1, n=2, k=2, L=20, seed=11), j=2, q=UNIFORM2)
        with pytest.raises(ValueError, match="epsilon"):
            typicality_check(code, UNIFORM2, epsilon, l_max=2)

    @pytest.mark.parametrize("q", [[1.0], [0.2, 0.3, 0.5], [[0.5, 0.5]]])
    def test_q_length_must_be_code_alphabet(self, q):
        # a length-1 q used to broadcast and call the code typical
        code = sample_code(EnsembleConfig(m=1, n=2, k=2, L=20, seed=11), j=2, q=UNIFORM2)
        with pytest.raises(ValueError, match="one probability per code symbol"):
            typicality_check(code, q, 0.3, l_max=2)

    def test_audit_fraction_between_zero_and_one(self):
        cfg = EnsembleConfig(m=1, n=2, k=2, L=20, seed=13)
        frac, reports, bound = typicality_audit(cfg, 2, UNIFORM2, 5, 0.5, 3)
        assert 0.0 <= frac <= 1.0
        assert len(reports) == 5
        assert bound > 0


def _encoded_pair_types(code, l_max, fixed_message=None):
    """Per-pair reference for enumerate_pair_types: encode the correct and
    the incorrect information sequence in full and count the symbol pairs
    over the span from the divergence node k-1 to the remerge."""
    cfg = code.cfg
    m, n, k, j = cfg.m, cfg.n, cfg.k, code.j
    node = k - 1

    def info_bits(blocks):
        padded = list(blocks) + [0] * (cfg.L - len(blocks))
        return np.array([(b >> (m - 1 - i)) & 1 for b in padded for i in range(m)],
                        dtype=np.int8)

    entries, totals = {}, {}
    for l in range(1, l_max + 1):
        span = k + l
        win_len = node + span
        assert win_len <= cfg.L  # every correct block is an information block
        if fixed_message is None:
            messages = itertools.product(range(1 << m), repeat=win_len)
        else:
            messages = [tuple(fixed_message[:win_len])]
        totals[l] = 0
        for u in messages:
            xu = encode(code, info_bits(u))[n * node:n * (node + span)].tolist()
            for pat in _deviation_patterns(l, k, m):
                v = list(u)
                for off, e in enumerate(pat):
                    v[node + off] ^= e
                xv = encode(code, info_bits(v))[n * node:n * (node + span)].tolist()
                key = [0] * (j * j)
                for a, b in zip(xu, xv):
                    key[a * j + b] += 1
                entries[(l, tuple(key))] = entries.get((l, tuple(key)), 0) + 1
                totals[l] += 1
    return entries, totals


class TestPairTypeOracle:
    @pytest.mark.parametrize("m,n,k,j,l_max", [
        (1, 2, 1, 2, 2), (1, 2, 2, 2, 3), (1, 2, 3, 2, 2), (1, 2, 4, 2, 2),
        (1, 3, 2, 3, 2), (1, 3, 3, 2, 1), (1, 2, 2, 16, 1),
        (2, 2, 1, 2, 2), (2, 2, 2, 2, 1), (2, 3, 2, 3, 1),
    ])
    def test_message_averaged(self, m, n, k, j, l_max):
        cfg = EnsembleConfig(m=m, n=n, k=k, L=2 * k + l_max - 1, seed=17)
        for index in range(2):
            code = sample_code(cfg, j=j, q=InputDist(np.full(j, 1 / j)), code_index=index)
            table = enumerate_pair_types(code, l_max)
            assert (table.entries, table.pair_totals) == _encoded_pair_types(code, l_max)
            assert list(table.entries) == sorted(table.entries)

    @pytest.mark.parametrize("m,n,k,j,l_max", [
        (1, 2, 4, 2, 3), (1, 3, 4, 3, 3), (2, 2, 3, 2, 2), (2, 3, 4, 3, 1),
        (2, 2, 2, 16, 2),
    ])
    def test_fixed_message(self, m, n, k, j, l_max):
        cfg = EnsembleConfig(m=m, n=n, k=k, L=2 * k + l_max - 1, seed=23)
        code = sample_code(cfg, j=j, q=InputDist(np.full(j, 1 / j)))
        message = np.random.default_rng(k).integers(0, 1 << m, size=cfg.L)
        table = enumerate_pair_types(code, l_max, fixed_message=message)
        want = _encoded_pair_types(code, l_max, fixed_message=message)
        assert (table.entries, table.pair_totals) == want

    def test_q_with_zero_entry(self):
        cfg = EnsembleConfig(m=1, n=2, k=3, L=7, seed=29)
        code = sample_code(cfg, j=3, q=InputDist([0.5, 0.0, 0.5]))
        assert not np.any(code.labels == 1)
        table = enumerate_pair_types(code, 2)
        assert (table.entries, table.pair_totals) == _encoded_pair_types(code, 2)

    def test_block_shorter_than_window_rejected(self):
        # the correct window u_0 .. u_{2k+l-2} must avoid the zero tail:
        # L = 4 holds it at l = 1 but not at l = 2
        cfg = EnsembleConfig(m=1, n=2, k=2, L=4, seed=3)
        code = sample_code(cfg, j=2, q=InputDist([0.5, 0.5]))
        with pytest.raises(ValueError, match="L >= 2k"):
            enumerate_pair_types(code, 2)
        table = enumerate_pair_types(code, 1)
        assert (table.entries, table.pair_totals) == _encoded_pair_types(code, 1)


def _pair_counts(code, u, pats, l):
    """Pattern-major (pairs, j^2) symbol-pair counts over the k+l branches
    from node k-1, for correct input blocks u (windows, 2k+l-1): one label
    gather and one bincount per deviation pattern."""
    cfg, j = code.cfg, code.j
    node, span, jj = cfg.k - 1, cfg.k + l, j * j
    t_span = np.arange(node, node + span)
    wins_u = _block_windows(u, cfg)[:, node:]  # (W, span)
    diffs = np.zeros((len(pats), u.shape[1]), dtype=np.int64)
    diffs[:, node:node + l + 1] = np.reshape(pats, (-1, l + 1))
    wins_diff = _block_windows(diffs, cfg)[:, node:]  # (patterns, span)
    # cell x*j + x' of each symbol pair, offset by j^2 per window so that
    # one bincount counts every window
    base = (np.arange(len(u))[:, None, None] * jj
            + code.labels[t_span, wins_u].astype(np.int64) * j)
    counts = np.empty((len(pats), len(u), jj), dtype=np.int32)
    for pi, diff in enumerate(wins_diff):
        cells = base + code.labels[t_span, wins_u ^ diff]
        counts[pi] = np.bincount(cells.ravel(), minlength=len(u) * jj).reshape(-1, jj)
    return counts.reshape(-1, jj)


def _distinct_rows(rows):
    """Distinct rows in ascending order and their multiplicities (exact)."""
    ranked = rows[np.lexsort(rows.T[::-1])]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    starts = np.flatnonzero(first)
    return ranked[starts], np.diff(np.append(starts, len(ranked)))


def _row_sort_pair_types(code, l_max, fixed_message=None):
    """Row-sort reference for enumerate_pair_types: a full (pairs, j^2)
    count table per l, made distinct by a lexsort over its j^2 columns."""
    cfg = code.cfg
    m, k = cfg.m, cfg.k
    entries, totals = {}, {}
    for l in range(1, l_max + 1):
        win_len = 2 * k + l - 1
        pats = _deviation_patterns(l, k, m)
        if fixed_message is None:
            u = _digits(np.arange((1 << m) ** win_len), m, win_len)
        else:
            u = np.asarray(fixed_message, dtype=np.int64)[None, :win_len]
        totals[l] = len(u) * len(pats)
        if pats:
            keys, mult = _distinct_rows(_pair_counts(code, u, pats, l))
            for key, c in zip(keys.tolist(), mult.tolist()):
                entries[(l, tuple(key))] = c
    return entries, totals


def _averaged_pairs(m, k, l_max):
    return sum((1 << m) ** (2 * k + l - 1) * len(_deviation_patterns(l, k, m))
               for l in range(1, l_max + 1))


def _row_sort_cases():
    """(m, j, k, l_max, fixed) over m in {1, 2}, j in {2, 3, 16} and
    k = 1..5: the largest l_max <= 3 whose reference table stays within
    2^17 pairs and 2^21 cells.  Message-averaged m = 2 at k >= 4 (and
    j = 16 at k = 3), whose l = 1 alone is over that, run fixed-message
    only."""
    cases = []
    for m, j, k, fixed in itertools.product((1, 2), (2, 3, 16), range(1, 6), (False, True)):
        fits = [l_max for l_max in (1, 2, 3)
                if fixed or (_averaged_pairs(m, k, l_max) <= 1 << 17
                             and _averaged_pairs(m, k, l_max) * j * j <= 1 << 21)]
        if fits:
            cases.append((m, j, k, max(fits), fixed))
    return cases


class TestPackedKeysMatchRowSort:
    """The packed type keys summed along the trellis give the same entries,
    in the same order, and the same pair totals as the row sort."""

    @staticmethod
    def _check(code, l_max, fixed=False):
        message = (np.random.default_rng(code.cfg.k).integers(0, 1 << code.cfg.m, size=code.cfg.L)
                   if fixed else None)
        table = enumerate_pair_types(code, l_max, fixed_message=message)
        entries, totals = _row_sort_pair_types(code, l_max, message)
        assert list(table.entries.items()) == list(entries.items())
        assert table.pair_totals == totals
        # the arrays themselves: int64, ascending l, rows rising strictly
        # within each l, and the multiplicities of each l summing to its total
        ls, counts, mults = table.ls, table.counts, table.multiplicities
        assert ls.dtype == counts.dtype == mults.dtype == np.int64
        assert counts.shape == (len(ls), code.j ** 2) and mults.shape == ls.shape
        assert np.all(np.diff(ls) >= 0)
        for l, total in totals.items():
            rows = list(map(tuple, counts[ls == l].tolist()))
            assert all(a < b for a, b in zip(rows, rows[1:]))
            assert mults[ls == l].sum() == total

    @pytest.mark.parametrize("m,j,k,l_max,fixed", _row_sort_cases())
    def test_general_codes(self, m, j, k, l_max, fixed):
        cfg = EnsembleConfig(m=m, n=2, k=k, L=2 * k + l_max - 1, seed=41)
        self._check(sample_code(cfg, j=j, q=InputDist(np.full(j, 1 / j))), l_max, fixed)

    @pytest.mark.parametrize("m,k,l_max", [(1, 1, 2), (1, 3, 3), (1, 5, 2), (2, 2, 2), (2, 3, 1)])
    @pytest.mark.parametrize("fixed", [False, True])
    def test_linear_codes(self, m, k, l_max, fixed):
        cfg = EnsembleConfig(m=m, n=3, k=k, L=2 * k + l_max - 1, seed=43, linear=True)
        self._check(sample_code(cfg, j=2), l_max, fixed)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_q_with_zero_entry(self, fixed):
        cfg = EnsembleConfig(m=1, n=2, k=4, L=10, seed=47)
        self._check(sample_code(cfg, j=3, q=InputDist([0.5, 0.0, 0.5])), 3, fixed)

    @pytest.mark.parametrize("n,l_max,words", [(2, 4, 1), (3, 2, 2)])
    def test_word_boundary(self, n, l_max, words):
        # j = 4, k = 3: N = n(k + l_max) is 14 or 15, and 15^16 < 2^63 <= 16^16,
        # so the last l packs into one word or into two
        assert _key_layout(16, n * (3 + l_max))[0][-1] + 1 == words
        cfg = EnsembleConfig(m=1, n=n, k=3, L=5 + l_max, seed=53)
        for fixed in (False, True):
            self._check(sample_code(cfg, j=4, q=InputDist(np.full(4, 0.25))), l_max, fixed)


class TestEnumerationMemory:
    """The enumerator's traced allocations stay near one int64 per pair,
    and the fixed-message mode builds nothing 2^K wide."""

    @staticmethod
    def _peak(code, l_max, **kwargs):
        import tracemalloc
        tracemalloc.start()
        try:
            table = enumerate_pair_types(code, l_max, **kwargs)
            return table, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_message_averaged(self):
        # 5,586,944 pairs; the (pairs, j^2) count rows alone took 85 MiB
        code = sample_code(EnsembleConfig(m=1, n=2, k=7, L=40, seed=3), j=2, q=UNIFORM2)
        table, peak = self._peak(code, 5)
        assert sum(table.pair_totals.values()) == 5_586_944
        assert peak < 128 << 20

    def test_fixed_message(self):
        # 2,304 patterns at l = 5 over 2^16 windows: a per-window branch
        # table would be about 15 GB
        import time
        code = sample_code(EnsembleConfig(m=2, n=2, k=8, L=30, seed=3), j=2, q=UNIFORM2)
        message = np.arange(30) % 4
        t0 = time.perf_counter()
        table, peak = self._peak(code, 5, fixed_message=message)
        elapsed = time.perf_counter() - t0
        assert table.pair_totals[5] == 2304
        assert peak < 16 << 20 and elapsed < 2.0


def _log2_type_probability(counts, log2_qq):
    """log2 Pr{a QxQ-i.i.d. pair of length-N vectors has these cell counts}."""
    counts = np.asarray(counts)
    total = counts.sum()
    lg = math.lgamma(total + 1) - sum(math.lgamma(c + 1) for c in counts)
    lg /= math.log(2.0)
    finite = counts > 0
    if np.any(finite & np.isinf(log2_qq)):
        return -np.inf
    return lg + float(np.sum(counts[finite] * log2_qq[finite]))


def _scored_violations(code, q, epsilon, table):
    """Per-entry reference for typicality_check's two conditions."""
    cfg = code.cfg
    qq = np.outer(q, q).reshape(-1)
    with np.errstate(divide="ignore"):
        log2_qq = np.log2(qq)
    log2_excess = math.log2((1 << cfg.m) - 1)
    violations = []
    for (l, key), observed in table.entries.items():
        nkl = cfg.n * (cfg.k + l)
        log2_en = math.log2(table.pair_totals[l]) + _log2_type_probability(key, log2_qq)
        if log2_en < log2_excess - nkl * epsilon:
            violations.append((l, key, observed, 0.0))
        elif math.log2(observed) > nkl * epsilon + log2_en:
            violations.append((l, key, observed, 2.0 ** (nkl * epsilon + log2_en)))
    return violations


class TestTypicalityScorer:
    # (m, n, k, j, l_max, code Q, scoring Q); n(k+l) eps is never an integer
    # here, so no type sits exactly on the first-condition threshold
    CASES = [
        (1, 2, 2, 2, 2, [0.5, 0.5], [0.5, 0.5]),
        (1, 2, 3, 2, 1, [0.5, 0.5], [0.7, 0.3]),
        (2, 2, 2, 2, 1, [0.5, 0.5], [0.5, 0.5]),
        (1, 3, 2, 3, 2, [0.5, 0.3, 0.2], [0.5, 0.3, 0.2]),
        (1, 2, 2, 3, 2, [1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0.0]),
    ]

    @pytest.mark.parametrize("epsilon", [0.3, 0.45])
    def test_matches_per_entry_reference(self, epsilon):
        kinds = set()
        for m, n, k, j, l_max, q_code, q_score in self.CASES:
            assert all((n * (k + l) * epsilon) % 1 > 1e-9 for l in range(1, l_max + 1))
            cfg = EnsembleConfig(m=m, n=n, k=k, L=20, seed=31)
            for index in range(6):
                code = sample_code(cfg, j=j, q=InputDist(q_code), code_index=index)
                table = enumerate_pair_types(code, l_max)
                got = typicality_check(code, InputDist(q_score), epsilon, l_max,
                                       table=table).violations
                want = _scored_violations(code, np.array(q_score), epsilon, table)
                assert [v[:3] for v in got] == [v[:3] for v in want]
                for (*_, bound), (*_, ref) in zip(got, want):
                    assert bound == pytest.approx(ref, rel=1e-12, abs=0.0)
                    kinds.add(ref > 0)
        assert kinds == {False, True}  # both conditions were exercised

    def test_scores_arrays_not_entries(self, monkeypatch):
        # the dict view of the table is for readers that want one; the
        # scorer and the audit give the same reports without it
        from trellisexp import sim
        cfg = EnsembleConfig(m=1, n=2, k=3, L=20, seed=31)
        q = InputDist([0.7, 0.3])
        codes = [sample_code(cfg, j=2, q=UNIFORM2, code_index=i) for i in range(4)]
        want = [typicality_check(code, q, 0.3, 3) for code in codes]
        want_audit = typicality_audit(cfg, 2, UNIFORM2, 6, 0.3, 3)
        assert any(rep.violations for rep in want)

        def unread(table):
            raise AssertionError("PairTypeTable.entries was read")

        monkeypatch.setattr(sim.PairTypeTable, "entries", property(unread))
        assert [typicality_check(code, q, 0.3, 3) for code in codes] == want
        assert typicality_audit(cfg, 2, UNIFORM2, 6, 0.3, 3) == want_audit

    def test_no_types_is_typical(self):
        cfg = EnsembleConfig(m=1, n=2, k=2, L=20, seed=11)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        assert typicality_check(code, UNIFORM2, 0.3, l_max=0).is_typical


def _viterbi_argmax_reference(code, metric, outputs):
    """Add-compare-select by argmax over the 2^m predecessors and a
    take_along_axis of the survivors, with the same traceback."""
    cfg = code.cfg
    logw = _log_metric(metric)
    ys, single = _batch(outputs, cfg.n * cfg.num_branches, "output symbols")
    b = ys.shape[0]
    ys = ys.reshape(b, cfg.num_branches, cfg.n)
    s_count, u_count = cfg.num_states, 1 << cfg.m
    tab = np.ascontiguousarray(logw.T[:, code.labels].transpose(1, 3, 0, 2))
    alpha = np.full((b, s_count), -1e30)
    alpha[:, 0] = 0.0
    choice = np.empty((b, cfg.num_branches, s_count), dtype=np.min_scalar_type(u_count - 1))
    for t in range(cfg.num_branches):
        bm = tab[t, 0][ys[:, t, 0]]
        for i in range(1, cfg.n):
            bm += tab[t, i][ys[:, t, i]]
        if cfg.k > 1:
            cand = alpha.reshape(b, 1, -1, u_count) + bm.reshape(b, u_count, -1, u_count)
        else:
            cand = alpha[:, :, None] + bm[:, None, :]
        cand = cand.reshape(b, s_count, u_count)
        best = cand.argmax(axis=2)
        choice[:, t] = best
        alpha = np.take_along_axis(cand, best[:, :, None], axis=2)[:, :, 0]
    blocks = np.empty((b, cfg.num_branches), dtype=np.int64)
    state = np.zeros(b, dtype=np.int64)
    rows = np.arange(b)
    for t in range(cfg.num_branches - 1, -1, -1):
        win = (state << cfg.m) | choice[rows, t, state]
        blocks[:, t] = win >> (cfg.m * (cfg.k - 1))
        state = win & (s_count - 1)
    bits = _digits(blocks[:, :cfg.L], 1, cfg.m).reshape(b, cfg.m * cfg.L).astype(np.int8)
    return bits[0] if single else bits


def _transmit_gather_reference(channel, symbols, rng):
    """Channel draw that gathers the (..., Y) cumulative rows of every
    symbol and counts the thresholds below u, with the last one set to 1."""
    if isinstance(channel, Dmc):
        channel = memoryless_lift(channel)
    x = np.asarray(symbols)
    prev = np.zeros_like(x)
    prev[..., 1:] = x[..., :-1]
    cum = np.cumsum(channel.w, axis=2)
    cum[..., -1] = 1.0
    u = rng.random(x.size).reshape(x.shape)
    return (u[..., None] > cum[x, prev]).sum(axis=-1)


ZEROS3 = Dmc([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]])  # -inf metrics
USELESS = Dmc([[0.5, 0.5], [0.5, 0.5]])  # every path ties
BINARY3 = Dmc([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
MISMATCHED = np.array([[0.5, 0.4, 0.1], [0.3, 0.3, 0.4]])  # (J, Y) = (2, 3), not BINARY3


def _isi():
    w = np.empty((2, 2, 2))
    for x, x_prev in itertools.product(range(2), repeat=2):
        flip = 0.05 if x == x_prev else 0.15
        w[x, x_prev] = [1 - flip, flip] if x == 0 else [flip, 1 - flip]
    return MarkovChannel(w)


def _memory2():
    w = np.empty((2, 2, 2, 2))
    for x, a, b in itertools.product(range(2), repeat=3):
        flip = 0.04 + 0.05 * ((a != x) + (b != x))
        w[x, a, b] = [1 - flip, flip] if x == 0 else [flip, 1 - flip]
    return lift_memory(w, 2)


class TestKernelsMatchReference:
    """The tournament add-compare-select and the threshold-count channel
    draw give bit for bit what argmax and the (B, N, Y) gather gave."""

    @pytest.fixture
    def pairs(self, bsc01, asym3):
        # channel, decoding metric
        return {"bsc": (bsc01, bsc01), "asym3": (asym3[0], asym3[0]),
                "zeros": (ZEROS3, ZEROS3), "useless": (USELESS, USELESS),
                "mismatched": (BINARY3, MISMATCHED)}

    # m = 8, k = 5 is left out: its 2^40 windows cannot be tabled
    @pytest.mark.parametrize("m,k", [(m, k) for m in (1, 2, 3, 8) for k in (1, 2, 5)
                                     if m * k <= 16])
    @pytest.mark.parametrize("name", ["bsc", "asym3", "zeros", "useless", "mismatched"])
    def test_viterbi_matches_argmax(self, m, k, name, pairs):
        channel, metric = pairs[name]
        L = 3 if m * k > 10 else 6
        cfg = EnsembleConfig(m=m, n=2, k=k, L=L, seed=m * 10 + k)
        code = sample_code(cfg, j=channel.num_inputs)
        rng = _rng(8, m, k)
        info = rng.integers(0, 2, size=(12, m * L), dtype=np.int8)
        ys = transmit(channel, encode(code, info), rng)
        got = viterbi_decode(code, metric, ys)
        assert got.dtype == np.int8
        assert np.array_equal(got, _viterbi_argmax_reference(code, metric, ys))

    @pytest.mark.parametrize("m,k", [(1, 8), (2, 3), (1, 4)])
    def test_viterbi_matches_argmax_at_benchmark_sizes(self, m, k, bsc01, asym3):
        for channel in (bsc01, asym3[0]):
            cfg = EnsembleConfig(m=m, n=2 * m, k=k, L=40, seed=k)
            code = sample_code(cfg, j=channel.num_inputs)
            rng = _rng(9, m, k)
            info = rng.integers(0, 2, size=(32, m * cfg.L), dtype=np.int8)
            ys = transmit(channel, encode(code, info), rng)
            assert np.array_equal(viterbi_decode(code, channel, ys),
                                  _viterbi_argmax_reference(code, channel, ys))

    @pytest.mark.parametrize("name", ["bsc", "asym3", "zeros", "useless", "isi", "memory2"])
    def test_transmit_matches_gather(self, name, bsc01, asym3):
        channel = {"bsc": bsc01, "asym3": asym3[0], "zeros": ZEROS3, "useless": USELESS,
                   "isi": _isi(), "memory2": _memory2()}[name]
        j = channel.num_inputs if isinstance(channel, Dmc) else channel.w.shape[0]
        for shape in [(64, 414), (37,), (3, 1), (0,)]:
            x = _rng(4, j).integers(0, j, size=shape)
            got = transmit(channel, x, _rng(5, 0))
            assert got.dtype == np.intp
            assert np.array_equal(got, _transmit_gather_reference(channel, x, _rng(5, 0)))

    def test_transmit_matches_gather_at_top_draw(self):
        row = [0.02594467158518534, 0.21986429110201317,
               0.39611424082905455, 0.35807679648374696]

        class TopDraw:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        dmc = Dmc([row, row[::-1]])
        x = np.array([[0, 1, 1, 0], [1, 1, 0, 0]])
        assert np.array_equal(transmit(dmc, x, TopDraw()),
                              _transmit_gather_reference(dmc, x, TopDraw()))


class TestSymbolRange:
    """Symbols outside the alphabet raise ValueError instead of being read
    from the end of a table by numpy's negative indexing."""

    @pytest.mark.parametrize("x", [[0, 1, -1, 1], [0, 2, 1], [[0, 1], [1, 5]]])
    def test_transmit_rejects_out_of_range_inputs(self, x, bsc01):
        with pytest.raises(ValueError, match=r"\[0, 2\).*size 2"):
            transmit(bsc01, np.array(x), _rng(0, 0))

    def test_transmit_rejects_non_integer_symbols(self, bsc01):
        with pytest.raises(ValueError, match="integers"):
            transmit(bsc01, np.array([0.0, 1.0]), _rng(0, 0))

    def test_markov_channel_range_is_its_input_alphabet(self):
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            transmit(_memory2(), np.array([0, 3, 4]), _rng(0, 0))

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_viterbi_rejects_out_of_range_outputs(self, bad, bsc01):
        cfg = EnsembleConfig(m=1, n=2, k=2, L=5, seed=1)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        y = np.zeros((2, cfg.n * cfg.num_branches), dtype=np.int64)
        y[1, 3] = bad
        with pytest.raises(ValueError, match=r"\[0, 2\).*size 2"):
            viterbi_decode(code, bsc01, y)

    @pytest.mark.parametrize("metric", [[[0.9, 0.1]], np.full((3, 2), 0.5), [0.5, 0.5]])
    def test_viterbi_rejects_metric_rows_other_than_j(self, metric):
        cfg = EnsembleConfig(m=1, n=2, k=2, L=5, seed=1)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        y = np.zeros(cfg.n * cfg.num_branches, dtype=np.int64)
        with pytest.raises(ValueError, match="J = 2"):
            viterbi_decode(code, metric, y)

    @pytest.mark.parametrize("entry", [-0.1, np.nan, np.inf])
    def test_viterbi_rejects_metric_entries(self, entry):
        cfg = EnsembleConfig(m=1, n=2, k=2, L=5, seed=1)
        code = sample_code(cfg, j=2, q=UNIFORM2)
        y = np.zeros(cfg.n * cfg.num_branches, dtype=np.int64)
        with pytest.raises(ValueError, match="finite and >= 0"):
            viterbi_decode(code, [[0.9, entry], [0.1, 0.9]], y)

    def test_estimate_rejects_channel_smaller_than_code_alphabet(self, bsc01):
        cfg = EnsembleConfig(m=1, n=2, k=2, L=5, seed=1)
        code = sample_code(cfg, j=3, q=InputDist([1 / 3, 1 / 3, 1 / 3]))
        with pytest.raises(ValueError, match="size 2"):
            estimate_error_exponent(code, bsc01, 4, _rng(1, 0), metric=np.full((3, 2), 0.5))
