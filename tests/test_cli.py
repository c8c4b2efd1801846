import io
import json
import math
import os

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
from trellisexp.exponents import CURVE_KINDS, cutoff_rate, exponent_curve
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
        assert len(built) <= 7  # R0 once, then one table per kind

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

    def test_ignored_keys_rejected(self, tmp_path):
        # audit reads only Q and the alphabet size
        for extra in ({"w_tilde": W_TILDE}, {"memory": MEMORY_BLOCK}):
            rc, out, err = run(["audit", "--channel", _spec_with(tmp_path, **extra),
                                "--m", "1", "--n", "2", "--k", "2", "--L", "20",
                                "--codes", "1", "--epsilon", "0.5", "--lmax", "2",
                                "--seed", "5"])
            assert rc == 2 and out == ""
            assert next(iter(extra)) in err


class TestDominant:
    def test_report_fields(self):
        rc, out, _ = run(["dominant", "--channel", BSC, "--rate", "0.22"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["rho_trtc"] == pytest.approx(1.0, abs=0.05)
        p = np.array(doc["p_star"])
        assert p[0, 1] == pytest.approx(0.1875, abs=2e-3)
        assert doc["critical_length_factor"] >= 1.0

    def test_low_rate_near_product(self):
        rc, out, _ = run(["dominant", "--channel", BSC, "--rate", "0.0001"])
        assert rc == 0
        p = np.array(json.loads(out)["p_star"])
        assert np.allclose(p, 0.25, atol=1e-3)

    def test_rate_too_high(self):
        rc, _, err = run(["dominant", "--channel", BSC, "--rate", "0.5"])
        assert rc == 1
        assert "error" in err

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

    def test_ignored_keys_rejected(self, tmp_path):
        for extra in ({"w_tilde": W_TILDE}, {"memory": MEMORY_BLOCK}):
            rc, out, err = run(["dominant", "--channel", _spec_with(tmp_path, **extra),
                                "--rate", "0.1"])
            assert rc == 2 and out == ""
            assert next(iter(extra)) in err
