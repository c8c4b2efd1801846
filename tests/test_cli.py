import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from trellisexp.cli import (
    ChannelSpecError,
    _fmt,
    build_parser,
    format_channel_spec,
    load_channel_spec,
    main,
    parse_channel_spec,
)
from trellisexp import sim
from trellisexp.channels import Dmc
from trellisexp.exponents import (CURVE_KINDS, RateOutOfRange, cutoff_rate, exponent_curve,
                                   expurgated_ex)
from conftest import FIXTURES

BSC = os.path.join(FIXTURES, "bsc01.json")


def run(argv):
    import contextlib
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestChannelSpec:
    def test_load_bsc(self):
        spec = load_channel_spec(BSC)
        assert spec.dmc.num_inputs == 2
        assert np.allclose(spec.q.q, 0.5)
        assert spec.units == "nats"

    def test_round_trip(self):
        spec = load_channel_spec(BSC)
        again = parse_channel_spec(format_channel_spec(spec))
        assert np.array_equal(again.dmc.w, spec.dmc.w)
        assert np.array_equal(again.q.q, spec.q.q)
        assert again.units == spec.units

    def test_unknown_key_rejected(self):
        with pytest.raises(ChannelSpecError):
            parse_channel_spec(json.dumps({
                "input_alphabet_size": 2, "output_alphabet_size": 2,
                "w": [[0.9, 0.1], [0.1, 0.9]], "q": [0.5, 0.5],
                "bogus": 1}))

    def test_missing_key_rejected(self):
        with pytest.raises(ChannelSpecError):
            parse_channel_spec(json.dumps({
                "input_alphabet_size": 2, "output_alphabet_size": 2,
                "w": [[0.9, 0.1], [0.1, 0.9]]}))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ChannelSpecError):
            parse_channel_spec(json.dumps({
                "input_alphabet_size": 3, "output_alphabet_size": 2,
                "w": [[0.9, 0.1], [0.1, 0.9]], "q": [0.5, 0.5]}))

    def test_memory_block_round_trip(self):
        doc = {
            "input_alphabet_size": 2, "output_alphabet_size": 2,
            "w": [[0.9, 0.1], [0.1, 0.9]], "q": [0.5, 0.5],
            "memory": {"w": [[[0.9, 0.1], [0.8, 0.2]],
                             [[0.1, 0.9], [0.2, 0.8]]]},
        }
        spec = parse_channel_spec(json.dumps(doc))
        assert spec.memory is not None
        again = parse_channel_spec(format_channel_spec(spec))
        assert np.allclose(again.memory.w, spec.memory.w)

    def test_round_trip_with_metrics(self):
        # a w_tilde, and a memory block whose metric differs from its w
        mem_w = [[[0.9, 0.1], [0.8, 0.2]], [[0.1, 0.9], [0.2, 0.8]]]
        doc = {
            "input_alphabet_size": 2, "output_alphabet_size": 2,
            "w": [[0.9, 0.1], [0.1, 0.9]], "q": [0.5, 0.5],
            "w_tilde": [[0.8, 0.2], [0.2, 0.8]],
            "memory": {"w": mem_w, "w_tilde": (2 * np.array(mem_w)).tolist()},
        }
        spec = parse_channel_spec(json.dumps(doc))
        text = format_channel_spec(spec)
        assert json.loads(text)["w_tilde"] == doc["w_tilde"]
        assert json.loads(text)["memory"] == doc["memory"]
        again = parse_channel_spec(text)
        assert np.array_equal(again.w_tilde.w, spec.w_tilde.w)
        assert np.array_equal(again.memory.w, spec.memory.w)
        assert np.array_equal(again.memory.w_tilde, spec.memory.w_tilde)
        assert not again.memory.matched


def _spec_with(tmp_path, **extra):
    """BSC(0.1) spec file with extra keys."""
    doc = {"input_alphabet_size": 2, "output_alphabet_size": 2,
           "w": [[0.9, 0.1], [0.1, 0.9]], "q": [0.5, 0.5], **extra}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


MEMORY_BLOCK = {"w": [[[0.9, 0.1], [0.8, 0.2]], [[0.1, 0.9], [0.2, 0.8]]]}
W_TILDE = [[0.8, 0.2], [0.2, 0.8]]


class TestCurve:
    def test_header_and_values(self):
        rc, out, _ = run(["curve", "--channel", BSC, "--kinds", "rtimes_rtc",
                          "--rmin", "0.01", "--rmax", "0.1", "--points", "5"])
        lines = out.strip().split("\n")
        assert rc == 0
        assert lines[0] == "rate,kind,value,rho,s"
        for line in lines[1:]:
            rate, kind, value, rho, s = line.split(",")
            assert kind == "rtimes_rtc"
            assert float(value) == pytest.approx(0.2231, abs=5e-4)

    def test_bits_units_scale(self):
        rc_n, out_n, _ = run(["curve", "--channel", BSC, "--kinds", "trtc",
                              "--rmin", "0.1", "--rmax", "0.15", "--points", "2"])
        ln2 = math.log(2.0)
        rc_b, out_b, _ = run(["curve", "--channel", BSC, "--kinds", "trtc",
                              "--rmin", str(0.1 / ln2), "--rmax", str(0.15 / ln2),
                              "--points", "2", "--units", "bits"])
        assert rc_n == rc_b == 0
        for ln, lb in zip(out_n.strip().split("\n")[1:],
                          out_b.strip().split("\n")[1:]):
            vn = float(ln.split(",")[2])
            vb = float(lb.split(",")[2])
            assert vb == pytest.approx(vn / ln2, rel=1e-9)

    def test_spec_units_are_the_default(self, tmp_path):
        # a bits spec reads --rmin/--rmax in bits unless --units overrides
        def curve(channel, *units):
            return run(["curve", "--channel", channel, "--kinds", "trtc",
                        "--rmin", "0.1", "--rmax", "0.2", "--points", "2", *units])

        bits = _spec_with(tmp_path, units="bits")
        assert curve(bits) == curve(BSC, "--units", "bits")
        assert curve(bits, "--units", "nats") == curve(BSC)
        assert curve(bits)[0] == 0 and curve(bits) != curve(BSC)

    def test_empty_kinds_usage_error(self):
        rc, _, err = run(["curve", "--channel", BSC, "--kinds", "",
                          "--rmin", "0.01", "--rmax", "0.1"])
        assert rc == 2
        assert "kinds" in err

    def test_unknown_kind_usage_error(self):
        rc, _, _ = run(["curve", "--channel", BSC, "--kinds", "nope",
                        "--rmin", "0.01", "--rmax", "0.1"])
        assert rc == 2

    def test_out_of_range_rate_rows_error(self):
        rc, out, err = run(["curve", "--channel", BSC, "--kinds", "trtc",
                            "--rmin", "0.2", "--rmax", "0.3", "--points", "3"])
        assert rc == 1
        assert "error" in err

    def test_all_kinds_in_bits_across_r0(self):
        # every row of the one-piece CSV against its own exponent_curve point,
        # rtimes_ rows included, and the error lines of the rates above R0
        # in kind-major order, all scaled to bits
        spec = load_channel_spec(BSC)
        ln2 = math.log(2.0)
        rc, out, err = run(["curve", "--channel", BSC, "--kinds", ",".join(CURVE_KINDS),
                            "--rmin", "0.05", "--rmax", "0.5", "--points", "10",
                            "--units", "bits"])
        want, want_err = ["rate,kind,value,rho,s"], []
        for kind in CURVE_KINDS:
            for rate in np.linspace(0.05 * ln2, 0.5 * ln2, 10).tolist():
                try:
                    r, value, rho = exponent_curve(kind, spec.dmc, spec.q, [rate]).points[0]
                except RateOutOfRange as e:
                    want_err.append(f"error: kind={kind} rate={_fmt(rate / ln2)}: {e}")
                    continue
                want.append(f"{_fmt(r / ln2)},{kind},{_fmt(value / ln2)},{_fmt(rho)},")
        assert rc == 1
        assert 6 < len(want_err) < 54  # the grid crosses R0 = 0.3219 bits
        assert out.split("\n") == want + [""]
        assert [line for line in err.split("\n") if line.startswith("error:")] == want_err

    def test_ignored_keys_rejected(self, tmp_path):
        for extra in ({"w_tilde": W_TILDE}, {"memory": MEMORY_BLOCK}):
            rc, out, err = run(["curve", "--channel", _spec_with(tmp_path, **extra),
                                "--kinds", "trtc", "--rmin", "0.05", "--rmax", "0.2",
                                "--points", "2"])
            assert rc == 2 and out == ""
            assert next(iter(extra)) in err

    def test_one_pair_table_per_kind(self, monkeypatch):
        from trellisexp import exponents
        built = []

        class Counting(exponents._PairTable):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(exponents, "_PairTable", Counting)
        rc, out, _ = run(["curve", "--channel", BSC, "--kinds", ",".join(CURVE_KINDS),
                          "--rmin", "0.01", "--rmax", "0.2", "--points", "20"])
        assert rc == 0 and len(out.strip().split("\n")) == 1 + 6 * 20
        assert len(built) <= 4  # R0 once, then one table per base kind

    @pytest.mark.parametrize("rmin,rmax", [("0.15", "0.05"), ("0.1", "0.1")])
    def test_decreasing_and_repeated_grids(self, rmin, rmax):
        # rows follow the requested grid, one exponent_curve point per rate
        spec = load_channel_spec(BSC)
        rc, out, _ = run(["curve", "--channel", BSC, "--kinds", "rtc,trtc,cex",
                          "--rmin", rmin, "--rmax", rmax, "--points", "4"])
        want = ["rate,kind,value,rho,s"]
        for kind in ("rtc", "trtc", "cex"):
            for rate in np.linspace(float(rmin), float(rmax), 4):
                r, value, rho = exponent_curve(kind, spec.dmc, spec.q, [rate]).points[0]
                want.append(f"{_fmt(r)},{kind},{_fmt(value)},{_fmt(rho)},")
        assert rc == 0
        assert out.split("\n")[:-1] == want

    def test_rate_rule_at_r0(self):
        spec = load_channel_spec(BSC)
        r0 = cutoff_rate(spec.dmc, spec.q)
        for offset, want_rc in ((5e-11, 0), (2e-10, 1)):
            rate = repr(float(r0 + offset))
            rc, out, err = run(["curve", "--channel", BSC, "--kinds", "rtc,trtc",
                                "--rmin", rate, "--rmax", rate, "--points", "1"])
            assert rc == want_rc
            assert len(out.strip().split("\n")) == (3 if want_rc == 0 else 1)
            assert err.count("error:") == (0 if want_rc == 0 else 2)


def test_parser_built_once_per_process(monkeypatch):
    from trellisexp import cli
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(["dominant", "--channel", BSC, "--rate", "0.1"])[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


class TestInvalidChannelValues:
    """Every validation failure of a spec is a channel spec error, exit 2."""

    @pytest.mark.parametrize("extra", [
        {"w": [[math.nan, math.nan], [0.1, 0.9]]},
        {"q": [math.nan, 0.5]},
        {"w": [[0.8, 0.1], [0.1, 0.9]]},
        {"w": [[0.9, 0.1], [0.1]]},
        {"memory": {"w": [[[1.5, -0.5], [0.8, 0.2]], [[0.1, 0.9], [0.2, 0.8]]]}},
        {"memory": {"w": MEMORY_BLOCK["w"],
                    "w_tilde": [[[math.inf, 0.1], [0.8, 0.2]], [[0.1, 0.9], [0.2, 0.8]]]}},
    ])
    def test_exit_2(self, tmp_path, extra):
        path = _spec_with(tmp_path, **extra)  # json writes bare NaN/Infinity
        with pytest.raises(ChannelSpecError):
            load_channel_spec(path)
        rc, out, err = run(["curve", "--channel", path, "--kinds", "trtc",
                            "--rmin", "0.05", "--rmax", "0.1", "--points", "2"])
        assert (rc, out) == (2, "")
        assert err.startswith("channel spec error:") and "Traceback" not in err


class TestSimulate:
    def test_deterministic_output(self):
        argv = ["simulate", "--channel", BSC, "--m", "1", "--n", "2", "--k", "2",
                "--L", "50", "--blocks", "10", "--codes", "2", "--seed", "17"]
        rc1, out1, _ = run(argv)
        rc2, out2, _ = run(argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_summary_rows(self):
        rc, out, _ = run(["simulate", "--channel", BSC, "--m", "1", "--n", "2",
                          "--k", "2", "--L", "50", "--blocks", "10",
                          "--codes", "3", "--seed", "17"])
        lines = out.strip().split("\n")
        assert lines[0].startswith("code,seed,")
        assert lines[-2].startswith("summary_mean,")
        assert lines[-1].startswith("summary_median,")

    def test_event_columns(self):
        # BSC(0.1) at rate 1/2 with k = 2 errs often in 20 blocks of 50
        rc, out, _ = run(["simulate", "--channel", BSC, "--m", "1", "--n", "2",
                          "--k", "2", "--L", "50", "--blocks", "20",
                          "--codes", "3", "--seed", "17"])
        assert rc == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:9] == ["code", "seed", "m", "n", "k", "p_e", "exponent",
                              "no_errors", "typical"]
        assert header[9:] == ["events", "nodes", "wilson_low", "wilson_high"]
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert all(len(line.split(",")) == len(header) for line in lines)
        for row in rows[:-2]:
            events, nodes = int(row["events"]), int(row["nodes"])
            assert 0 < events <= nodes == 20 * 50
            assert float(row["p_e"]) == pytest.approx(events / nodes, rel=1e-11)
            assert (float(row["wilson_low"]) <= float(row["p_e"])
                    <= float(row["wilson_high"]))
        for row in rows[-2:]:
            assert [row[c] for c in header[9:]] == [""] * 4

    def test_trials_overrides_blocks(self):
        rc, out, _ = run(["simulate", "--channel", BSC, "--m", "1", "--n", "2",
                          "--k", "2", "--L", "50", "--trials", "100",
                          "--codes", "1", "--seed", "3"])
        assert rc == 0


    def test_typical_column(self):
        # each code's flag is the typicality check of that code
        rc, out, _ = run(SIMULATE + ["--k", "2", "--L", "20", "--codes", "6", "--blocks", "2",
                                     "--lmax", "2", "--epsilon", "0.5"])
        assert rc == 0
        spec = load_channel_spec(BSC)
        cfg = sim.EnsembleConfig(m=1, n=2, k=2, L=20, seed=1)
        want = [sim.typicality_check(sim.sample_code(cfg, j=2, q=spec.q, code_index=i),
                                     spec.q, 0.5, 2).is_typical for i in range(6)]
        got = [line.split(",")[8] for line in out.splitlines()[1:7]]
        assert got == [str(int(t)) for t in want]
        assert set(got) == {"0", "1"}

    def test_memory_rejected_w_tilde_used(self, tmp_path):
        argv = ["--m", "1", "--n", "2", "--k", "2", "--L", "20", "--blocks", "5",
                "--seed", "3"]
        rc, out, err = run(["simulate", "--channel",
                            _spec_with(tmp_path, memory=MEMORY_BLOCK)] + argv)
        assert rc == 2 and out == ""
        assert "memory" in err
        rc, out, _ = run(["simulate", "--channel",
                          _spec_with(tmp_path, w_tilde=W_TILDE)] + argv)
        assert rc == 0 and out.startswith("code,seed,")


class TestAudit:
    def test_audit_runs(self):
        rc, out, _ = run(["audit", "--channel", BSC, "--m", "1", "--n", "2",
                          "--k", "2", "--L", "20", "--codes", "3",
                          "--epsilon", "0.5", "--lmax", "3", "--seed", "5"])
        lines = out.strip().split("\n")
        assert rc == 0
        assert lines[0] == "code,is_typical,violations"
        assert lines[-2].startswith("summary,")
        assert lines[-1].startswith("bound,")

    def test_violation_counts(self):
        # each code's count is the length of its report's violations
        rc, out, _ = run(["audit", "--channel", BSC, "--m", "1", "--n", "2",
                          "--k", "3", "--L", "20", "--codes", "4",
                          "--epsilon", "0.3", "--lmax", "3", "--seed", "5"])
        assert rc == 0
        spec = load_channel_spec(BSC)
        cfg = sim.EnsembleConfig(m=1, n=2, k=3, L=20, seed=5)
        want = [len(sim.typicality_check(sim.sample_code(cfg, j=2, q=spec.q, code_index=i),
                                         spec.q, 0.3, 3).violations) for i in range(4)]
        got = [int(line.split(",")[2]) for line in out.splitlines()[1:5]]
        assert got == want and any(want)

    def test_k1_every_code_typical(self):
        # at k = 1 no incorrect path stays unmerged past one branch, so no
        # pair type is enumerated and no code can violate a condition
        rc, out, _ = run(["audit", "--channel", BSC, "--m", "1", "--n", "2",
                          "--k", "1", "--L", "20", "--codes", "50",
                          "--epsilon", "0.3", "--lmax", "2", "--seed", "3"])
        assert rc == 0
        assert out.strip().split("\n")[-2] == "summary,1,0"

    def test_ignored_keys_rejected(self, tmp_path):
        # audit reads only Q and the alphabet size
        for extra in ({"w_tilde": W_TILDE}, {"memory": MEMORY_BLOCK}):
            rc, out, err = run(["audit", "--channel", _spec_with(tmp_path, **extra),
                                "--m", "1", "--n", "2", "--k", "2", "--L", "20",
                                "--codes", "1", "--epsilon", "0.5", "--lmax", "2",
                                "--seed", "5"])
            assert rc == 2 and out == ""
            assert next(iter(extra)) in err


AUDIT = ["audit", "--channel", BSC, "--m", "1", "--n", "2", "--epsilon", "0.3",
         "--seed", "1"]
CURVE = ["curve", "--channel", BSC, "--kinds", "trtc", "--rmin", "0.05", "--rmax", "0.1"]
SIMULATE = ["simulate", "--channel", BSC, "--m", "1", "--n", "2", "--seed", "1"]


class TestBadEnsembleArguments:
    @pytest.mark.parametrize("argv", [
        # found by sim: one "error:" line
        AUDIT + ["--k", "4", "--L", "5", "--lmax", "4", "--codes", "1"],
        SIMULATE + ["--k", "0"],
        # over the enumeration budget at l = 1, before anything is built
        AUDIT + ["--k", "12", "--L", "40", "--lmax", "1", "--codes", "1"],
        AUDIT + ["--k", "9", "--L", "40", "--lmax", "6", "--codes", "1"],
        AUDIT + ["--k", "2", "--lmax", "-1", "--codes", "1"],
        # found by the typicality check of the first code: L < 2k + l - 1
        SIMULATE + ["--k", "2", "--L", "4", "--lmax", "5"],
    ])
    def test_sim_error_exits_2(self, argv):
        rc, out, err = run(argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_linear_rejects_non_uniform_q(self, tmp_path):
        # the linear ensemble ignored q and drew uniform labels
        rc, out, err = run(["simulate", "--channel", _spec_with(tmp_path, q=[0.9, 0.1]),
                            "--m", "1", "--n", "2", "--k", "3", "--linear", "--seed", "1"])
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and "uniform" in err and err.count("\n") == 1

    def test_negative_lmax_rejected_as_audit_does(self):
        # simulate rejects it before simulating anything, with audit's exit
        # code and message; it used to exit 0 without the typical column
        assert (run(SIMULATE + ["--k", "2", "--lmax", "-2"])
                == run(AUDIT + ["--k", "2", "--lmax", "-2", "--codes", "1"])
                == (2, "", "error: l_max must be >= 0, got -2\n"))

    @pytest.mark.parametrize("command", [SIMULATE, AUDIT + ["--lmax", "1", "--codes", "1"]])
    def test_negative_seed_rejected(self, command):
        # it used to end in an OverflowError traceback from the Philox key
        assert (run(command + ["--k", "2", "--seed", "-1"])
                == (2, "", "error: seed must be >= 0, got -1\n"))

    @pytest.mark.parametrize("argv", [
        # rejected by argparse: usage and one "error:" line, no traceback
        AUDIT + ["--k", "2", "--lmax", "2", "--codes", "0"],
        SIMULATE + ["--k", "2", "--codes", "0"],
        SIMULATE + ["--k", "2", "--blocks", "0"],
        SIMULATE + ["--k", "2", "--trials", "0"],
        SIMULATE + ["--k", "2", "--trials", "-5"],
        CURVE + ["--points", "0"],
        CURVE + ["--points", "-3"],
    ])
    def test_count_below_one_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "must be >= 1" in err.splitlines()[-1] and "Traceback" not in err

    @pytest.mark.parametrize("command", [AUDIT + ["--k", "2", "--lmax", "2", "--codes", "1"],
                                         SIMULATE + ["--k", "2", "--lmax", "2"]])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_epsilon_is_usage_error(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--epsilon", value])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "must be finite" in err.splitlines()[-1] and "Traceback" not in err

    @pytest.mark.parametrize("option", ["--rmin", "--rmax"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_bound_is_usage_error(self, option, value, capsys):
        # unchecked, an inf bound gives rate=nan rows and a numpy RuntimeWarning
        with pytest.raises(SystemExit) as exc:
            main(CURVE + [option, value])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "must be finite" in err.splitlines()[-1] and "Traceback" not in err


class TestDominant:
    def test_report_fields(self):
        rc, out, _ = run(["dominant", "--channel", BSC, "--rate", "0.22"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["rho_trtc"] == pytest.approx(1.0, abs=0.05)
        p = np.array(doc["p_star"])
        assert p[0, 1] == pytest.approx(0.1875, abs=2e-3)
        assert doc["critical_length_factor"] >= 1.0

    def test_bits_spec_echoes_rate(self, tmp_path):
        # the rate is read in the spec's units and echoed as given
        rc, out, _ = run(["dominant", "--channel", _spec_with(tmp_path, units="bits"),
                          "--rate", "0.1"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["rate"] == 0.1
        spec = load_channel_spec(BSC)
        rho = exponent_curve("trtc", spec.dmc, spec.q, [0.1 * math.log(2.0)]).points[0][2]
        assert doc["rho_trtc"] == pytest.approx(rho, rel=1e-12)
        assert rho == pytest.approx(2.237, abs=1e-3)

    def test_low_rate_near_product(self):
        rc, out, _ = run(["dominant", "--channel", BSC, "--rate", "0.0001"])
        assert rc == 0
        p = np.array(json.loads(out)["p_star"])
        assert np.allclose(p, 0.25, atol=1e-3)

    def test_rate_too_high(self):
        rc, _, err = run(["dominant", "--channel", BSC, "--rate", "0.5"])
        assert rc == 1
        assert "error" in err

    def test_tiny_rate_on_a_near_noiseless_channel(self, tmp_path):
        # BSC(1e-300) at R = 1e-300: the trtc root r = 1/rho is about
        # 1.2e-302, and rho = (Ex(inf) + R) / (2R) to first order in r
        w = [[1.0, 1e-300], [1e-300, 1.0]]
        rc, out, err = run(["dominant", "--channel", _spec_with(tmp_path, w=w),
                            "--rate", "1e-300"])
        assert (rc, err) == (0, "")
        rho = json.loads(out)["rho_trtc"]
        want = (expurgated_ex(Dmc(w), [0.5, 0.5], math.inf) + 1e-300) / 2e-300
        assert rho == pytest.approx(want, rel=1e-14, abs=0)
        assert rho == pytest.approx(8.6174e301, rel=1e-5)

    def test_unbounded_exponent(self, tmp_path):
        # noiseless BSC: no trtc root below R = ln2/2, however large rho
        path = tmp_path / "noiseless.json"
        path.write_text(json.dumps({
            "input_alphabet_size": 2, "output_alphabet_size": 2,
            "w": [[1.0, 0.0], [0.0, 1.0]], "q": [0.5, 0.5]}))
        rc, out, err = run(["dominant", "--channel", str(path), "--rate", "0.1"])
        assert rc == 1 and out == ""
        assert "unbounded" in err

    def test_rate_at_edge_names_rhat0(self, tmp_path):
        # noiseless BSC: rhat0 = ln2/2, the trtc root exists only above it
        path = _spec_with(tmp_path, w=[[1.0, 0.0], [0.0, 1.0]])
        rc, _, err = run(["dominant", "--channel", path, "--rate", "0.3"])
        assert rc == 1 and "rhat0=0.34657359" in err
        rc, out, _ = run(["dominant", "--channel", path, "--rate", "0.4"])
        assert rc == 0 and json.loads(out)["rho_trtc"] > 1.0

    def test_point_mass_q_gives_valid_json(self, tmp_path):
        # a point-mass q has R0 = 0 and the diagonal P*, so the factor is
        # 2R/2R = 1 and Delta is +0.0; NaN would not be valid JSON
        def no_constant(name):
            raise ValueError(f"{name} is not valid JSON")

        rc, out, err = run(["dominant", "--channel", _spec_with(tmp_path, q=[1.0, 0.0]),
                            "--rate", "1e-17"])
        assert rc == 0 and err == ""
        doc = json.loads(out, parse_constant=no_constant)
        assert doc["critical_length_factor"] == 1.0
        assert doc["delta_half"] == 0.0 and math.copysign(1.0, doc["delta_half"]) == 1.0

    def test_one_pair_table_per_run(self, monkeypatch):
        from trellisexp import exponents, types_opt
        built = []

        class Counting(exponents._PairTable):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(exponents, "_PairTable", Counting)
        monkeypatch.setattr(types_opt, "_PairTable", Counting)
        rc, _, _ = run(["dominant", "--channel", BSC, "--rate", "0.1"])
        assert rc == 0 and len(built) == 1

    def test_ignored_keys_rejected(self, tmp_path):
        for extra in ({"w_tilde": W_TILDE}, {"memory": MEMORY_BLOCK}):
            rc, out, err = run(["dominant", "--channel", _spec_with(tmp_path, **extra),
                                "--rate", "0.1"])
            assert rc == 2 and out == ""
            assert next(iter(extra)) in err


class TestImports:
    def test_no_command_loads_scipy(self):
        # numpy is the only runtime dependency: scipy is a test oracle, and
        # no module named scipy or scipy.* is loaded by importing the
        # package, by the analytic routes or by any command
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import contextlib, io, sys\n"
            "import trellisexp.cli\n"
            "from trellisexp.channels import Dmc, InputDist\n"
            "from trellisexp.exponents import solve_rho\n"
            "from trellisexp.memory import extended_exponent, memoryless_lift\n"
            "from trellisexp.types_opt import csiszar_exponent\n"
            "bsc, q = Dmc([[0.9, 0.1], [0.1, 0.9]]), InputDist([0.5, 0.5])\n"
            "solve_rho('trtc', bsc, q, 0.1)\n"
            "csiszar_exponent(bsc, q, 0.1)\n"
            "extended_exponent(memoryless_lift(bsc), q, 0.1)\n"
            f"channel = {BSC!r}\n"
            "ensemble = ['--channel', channel, '--m', '1', '--n', '2', '--k', '2',\n"
            "            '--L', '20', '--seed', '1']\n"
            "commands = [\n"
            "    ['curve', '--channel', channel, '--kinds', 'rtc,cex,trtc', '--rmin', '0.05',\n"
            "     '--rmax', '0.2', '--points', '3'],\n"
            "    ['dominant', '--channel', channel, '--rate', '0.15'],\n"
            "    ['simulate', *ensemble, '--blocks', '5', '--lmax', '2'],\n"
            "    ['audit', *ensemble, '--codes', '2', '--epsilon', '0.3', '--lmax', '2']]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in commands:\n"
            "        assert trellisexp.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"


class TestShell:
    @pytest.mark.parametrize("rows, rate, code", [
        ([[0.9, 0.1], [0.1, 0.9]], "0.1", 0),
        ([[0.9, 0.1], [0.1, 0.9]], "0.5", 1),  # above R0 = -ln 0.8
        ([[0.8, 0.1], [0.1, 0.9]], "0.1", 2),  # row 0 sums to 0.9
    ], ids=["valid", "above_r0", "bad_spec"])
    def test_exit_code_reaches_the_shell(self, tmp_path, rows, rate, code):
        # `python -m trellisexp.cli` hands main's return value to sys.exit
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["curve", "--channel", _spec_with(tmp_path, w=rows), "--kinds", "trtc",
                "--rmin", rate, "--rmax", rate, "--points", "1"]
        proc = subprocess.run([sys.executable, "-m", "trellisexp.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.startswith("rate,kind,") == (code < 2)
        assert ("sums to 0.9" in proc.stderr) == (code == 2)
