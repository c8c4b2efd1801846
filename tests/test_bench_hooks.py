"""The library surface that the benchmark harness in `perfbench/` reads.

Its tracer reads `exponents.RHO_MAX` and the `.rho` of `solve_rho`'s result,
counts pair types from `enumerate_pair_types(...)` (`entries` and
`pair_totals`) and ACS operations from a code's `cfg`, and counts eigenvalue
solves by patching the module attribute `memory.perron_frobenius`.  A change
that breaks one of these would otherwise show only in a traced benchmark run.
"""

from trellisexp import exponents, memory, sim


def test_benchmark_hooks(monkeypatch, bsc01, uniform2):
    assert exponents.RHO_MAX > 1.0
    assert exponents.solve_rho("trtc", bsc01, uniform2, 0.1).rho >= 1.0

    code = sim.sample_code(sim.EnsembleConfig(m=1, n=2, k=3, L=20, seed=1), j=2, q=uniform2)
    assert (code.cfg.m, code.cfg.num_states, code.cfg.num_branches) == (1, 4, 22)
    table = sim.enumerate_pair_types(code, 3)
    entries = table.entries
    assert list(entries.items()) == [
        ((l, tuple(row)), c) for l, row, c in zip(
            table.ls.tolist(), table.counts.tolist(), table.multiplicities.tolist())]
    for l, total in table.pair_totals.items():
        assert sum(c for (ll, _key), c in entries.items() if ll == l) == total

    calls = []
    pf = memory.perron_frobenius
    monkeypatch.setattr(memory, "perron_frobenius", lambda a: calls.append(a) or pf(a))
    memory.extended_exponent(memory.memoryless_lift(bsc01), uniform2, 0.1)
    assert calls
