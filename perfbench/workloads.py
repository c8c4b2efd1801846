"""Workloads of the trellisexp benchmark.

Each workload is a fixed job list that one client runs in order, each job
starting after the previous one ends (a closed loop).  This module writes the
generated inputs (channel JSON files), builds the job list of one pass from
the workload seed, runs the set-up (spec loading and one warm-up call per
route) and holds the output checks.  Every call into the program goes through
a module attribute (`cli.main`, `types_opt.csiszar_exponent`, ...) so that
the tracer in `tracer.py` sees it.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

from trellisexp import cli, exponents, memory, sim, types_opt

CURVE_KINDS = "rtc,cex,trtc,rtimes_rtc,rtimes_cex,rtimes_trtc"

# Cutoff rates (nats) used to place the rate grids below R0.  The R0 of
# BSC(0.1) is also an output check on the curve route.
R0_BSC = 0.2231
R0_ASYM3 = 0.1256

BSC = {"w": [[0.9, 0.1], [0.1, 0.9]], "q": [0.5, 0.5]}
ASYM3 = {"w": [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]],
         "q": [0.5, 0.3, 0.2]}

DECODE_L = 200          # block length in branches of every decode job
DECODE_BATCH = 256      # blocks per viterbi_decode call in estimate_error_exponent


def _bsc_row(p, x):
    return [1.0 - p, p] if x == 0 else [p, 1.0 - p]


def _isi_channel():
    """One-step ISI: BSC crossover 0.05 when x == x_prev, 0.15 otherwise."""
    return [[_bsc_row(0.05 if x == xp else 0.15, x) for xp in range(2)]
            for x in range(2)]


def _memory2_channel():
    """Two past inputs: crossover 0.04 plus 0.05 per past input != x."""
    return [[[_bsc_row(0.04 + 0.05 * ((a != x) + (b != x)), x)
              for b in range(2)] for a in range(2)] for x in range(2)]


def _spec(ch, **extra):
    w = ch["w"]
    return {"input_alphabet_size": len(w), "output_alphabet_size": len(w[0]),
            "w": w, "q": ch["q"], "units": "nats", **extra}


def input_paths(inputs_dir):
    return {name: str(inputs_dir / f"{name}.json")
            for name in ("bsc", "asym3", "isi", "memory2")}


def write_inputs(inputs_dir):
    """Write the channel files every workload reads."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    docs = {
        "bsc": _spec(BSC),
        "asym3": _spec(ASYM3),
        # the memoryless marginal of the ISI channel is BSC(0.1)
        "isi": _spec(BSC, memory={"w": _isi_channel()}),
        "memory2": {"p": 2, "w": _memory2_channel(), "q": BSC["q"]},
    }
    for name, path in input_paths(inputs_dir).items():
        with open(path, "w") as f:
            json.dump(docs[name], f, indent=1)


@dataclass
class Channels:
    """Channel specs loaded during set-up."""
    paths: dict
    bsc: cli.ChannelSpec
    asym3: cli.ChannelSpec
    isi: memory.MarkovChannel
    memory2: memory.MarkovChannel


def load_channels(paths) -> Channels:
    with open(paths["memory2"]) as f:
        raw = json.load(f)
    return Channels(
        paths=paths,
        bsc=cli.load_channel_spec(paths["bsc"]),
        asym3=cli.load_channel_spec(paths["asym3"]),
        isi=cli.load_channel_spec(paths["isi"]).memory,
        memory2=memory.lift_memory(raw["w"], raw["p"]),
    )


# Route throughputs: work items per second in the jobs of one route.
ROUTES = ("curve_points_per_s", "csiszar_points_per_s", "ext_points_per_s",
          "node_trials_per_s.small_k", "node_trials_per_s.large_k",
          "codes_audited_per_s")


@dataclass
class Job:
    label: str
    run: Callable[[], object]              # the timed call; returns its output
    check: Callable[[object], list]        # problems found in that output
    route: str = None                      # the ROUTES entry its items count in
    items: int = 0                         # work items the job produces


def run_cli(argv):
    """One CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects bad arguments this way
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def _cli_rows(output, problems):
    rc, out, err = output
    if rc != 0:
        problems.append(f"exit code {rc}: {err.strip()[:200]}")
        return []
    return [line.split(",") for line in out.splitlines()[1:]]


def _strata(rng, lo, hi, count):
    """`count` points, one uniform draw in each of `count` equal strata of
    [lo, hi], so every seed spreads the same amount of work over the range."""
    return [lo + (hi - lo) * (i + rng.uniform()) / count for i in range(count)]


# --- analytic, curve route: many scalar-rho solves through the curve command -

CURVE_POINTS = 200


def _curve_check(spec, binary_uniform):
    def check(output):
        problems = []
        rows = _cli_rows(output, problems)
        if output[0] != 0:
            return problems
        if len(rows) != CURVE_POINTS * 6:
            problems.append(f"{len(rows)} rows, expected {CURVE_POINTS * 6}")
        for rate, kind, value, _rho, _s in rows:
            rate, value = float(rate), float(value)
            if not math.isfinite(value) or value <= 0:
                problems.append(f"{kind} at R={rate}: value {value}")
            elif binary_uniform and kind == "rtimes_rtc" and abs(value - R0_BSC) > 5e-4:
                problems.append(f"R0(BSC) = {value}, expected {R0_BSC} +- 5e-4")
            elif binary_uniform and kind == "cex":
                ref = exponents.costello_form_cex(spec.dmc, spec.q, rate)
                if abs(value - ref) > 1e-6:
                    problems.append(f"cex at R={rate}: {value} vs Costello {ref}")
        return problems
    return check


def curve_jobs(chs, rng):
    jobs = []
    for name, r0 in (("bsc", R0_BSC), ("asym3", R0_ASYM3)):
        rmin = r0 * rng.uniform(0.04, 0.06)
        rmax = r0 * rng.uniform(0.93, 0.95)
        argv = ["curve", "--channel", chs.paths[name], "--kinds", CURVE_KINDS,
                "--rmin", repr(rmin), "--rmax", repr(rmax),
                "--points", str(CURVE_POINTS)]
        spec = getattr(chs, name)
        jobs.append(Job(f"curve {name} kinds=6 points={CURVE_POINTS}",
                        lambda argv=argv: run_cli(argv),
                        _curve_check(spec, name == "bsc"),
                        "curve_points_per_s", CURVE_POINTS * 6))
    return jobs


# --- analytic, types route: Ex inside the Legendre supremum, plus dominant --

CSISZAR_RATES = 12
DOMINANT_RATES = 10


def _trtc(spec, rate):
    return exponents.exponent_curve("trtc", spec.dmc, spec.q, [rate]).points[0][1]


def _csiszar_check(spec, rate):
    def check(value):
        ref = _trtc(spec, rate)
        if abs(value - ref) > 1e-3:
            return [f"csiszar at R={rate}: {value} vs trtc {ref}"]
        return []
    return check


def _dominant_check(output):
    problems = []
    rc, out, err = output
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[:200]}"]
    rep = json.loads(out)
    p = np.asarray(rep["p_star"])
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        problems.append(f"p_star is not a distribution: {p.tolist()}")
    if not rep["rho_trtc"] >= 1.0:
        problems.append(f"rho_trtc {rep['rho_trtc']} < 1")
    if not rep["divergence"] >= 0.0:
        problems.append(f"divergence {rep['divergence']} < 0")
    if not rep["critical_length_factor"] > 1.0:
        problems.append(f"critical-length factor {rep['critical_length_factor']} <= 1")
    return problems


def types_jobs(chs, rng):
    jobs = []
    for name, r0 in (("bsc", R0_BSC), ("asym3", R0_ASYM3)):
        spec = getattr(chs, name)
        for rate in _strata(rng, 0.05 * r0, 0.95 * r0, CSISZAR_RATES):
            jobs.append(Job(
                f"csiszar_exponent {name} R={rate:.5f}",
                lambda spec=spec, rate=rate: types_opt.csiszar_exponent(spec.dmc, spec.q, rate),
                _csiszar_check(spec, rate), "csiszar_points_per_s", 1))
        for rate in _strata(rng, 0.1 * r0, 0.9 * r0, DOMINANT_RATES):
            argv = ["dominant", "--channel", chs.paths[name], "--rate", repr(rate)]
            jobs.append(Job(f"dominant {name} R={rate:.5f}",
                            lambda argv=argv: run_cli(argv), _dominant_check))
    return jobs


# --- analytic, memory route: the Perron-Frobenius route --------------------

EXT_RATES = 4


def _ext_check(reference):
    def check(output):
        value, s_star, rho = output
        if not (math.isfinite(value) and value > 0 and rho >= 1.0 and s_star >= 0):
            return [f"extended_exponent returned {output}"]
        if reference is not None:
            ref = reference()
            if abs(value - ref) > 1e-3:
                return [f"extended_exponent {value} vs trtc {ref}"]
        return []
    return check


def memory_jobs(chs, rng):
    lifted = memory.memoryless_lift(chs.bsc.dmc)
    q = chs.bsc.q
    cases = (("lift(bsc)", lifted, True), ("isi", chs.isi, False),
             ("memory2", chs.memory2, False))
    jobs = []
    for name, ch, matches_trtc in cases:
        for rate in _strata(rng, 0.1 * R0_BSC, 0.9 * R0_BSC, EXT_RATES):
            ref = (lambda rate=rate: _trtc(chs.bsc, rate)) if matches_trtc else None
            jobs.append(Job(
                f"extended_exponent {name} R={rate:.5f}",
                lambda ch=ch, rate=rate: memory.extended_exponent(ch, q, rate),
                _ext_check(ref), "ext_points_per_s", 1))
    return jobs


# --- decode: simulate, Viterbi-bound ----------------------------------------

def _ml_check(spec, cfg, rng):
    """Decode a few sampled blocks of code 0: the decoded path's log-metric
    must be at least the transmitted path's."""
    code = sim.sample_code(cfg, j=spec.dmc.num_inputs, q=spec.q, code_index=0)
    info = rng.integers(0, 2, size=(4, cfg.m * cfg.L), dtype=np.int8)
    x = sim.encode(code, info)
    y = sim.transmit(spec.dmc, x, rng)
    xd = sim.encode(code, sim.viterbi_decode(code, spec.dmc, y))
    with np.errstate(divide="ignore"):
        logw = np.log(spec.dmc.w)
    sent = logw[x, y].sum(axis=1)
    decoded = logw[xd, y].sum(axis=1)
    bad = np.flatnonzero(decoded < sent - 1e-9)
    return [f"decoded log-metric {decoded[i]} < transmitted {sent[i]}" for i in bad]


def _simulate_check(spec, cfg, codes, check_seed):
    def check(output):
        problems = []
        rows = _cli_rows(output, problems)
        if output[0] != 0:
            return problems
        per_code = [r for r in rows if not r[0].startswith("summary")]
        if len(per_code) != codes:
            problems.append(f"{len(per_code)} code rows, expected {codes}")
        for r in per_code:
            p_e = float(r[5])
            if not 0.0 < p_e <= 1.0:  # events <= nodes
                problems.append(f"code {r[0]}: p_e {p_e} outside (0, 1]")
        problems += _ml_check(spec, cfg, np.random.default_rng(check_seed))
        return problems
    return check


def _simulate_job(chs, rng, route, name, m, n, k, codes, linear=False):
    spec = getattr(chs, name)
    seed = int(rng.integers(0, 2**31))
    trials = DECODE_BATCH * DECODE_L  # one full viterbi_decode batch per code
    argv = ["simulate", "--channel", chs.paths[name], "--m", str(m), "--n", str(n),
            "--k", str(k), "--L", str(DECODE_L), "--codes", str(codes),
            "--trials", str(trials), "--seed", str(seed)]
    if linear:
        argv.append("--linear")
    cfg = sim.EnsembleConfig(m=m, n=n, k=k, L=DECODE_L, linear=linear, seed=seed)
    label = (f"simulate {name} m={m} n={n} k={k} states={cfg.num_states}"
             f"{' linear' if linear else ''} codes={codes} trials/code={trials}")
    return Job(label, lambda: run_cli(argv),
               _simulate_check(spec, cfg, codes, seed + 1), route, codes * trials)


def decode_jobs(chs, rng):
    small, large = "node_trials_per_s.small_k", "node_trials_per_s.large_k"
    return [_simulate_job(chs, rng, small, "bsc", 1, 2, 4, codes=4),
            _simulate_job(chs, rng, small, "asym3", 1, 2, 4, codes=4),
            _simulate_job(chs, rng, small, "bsc", 2, 4, 3, codes=1),
            _simulate_job(chs, rng, large, "bsc", 1, 2, 6, codes=1),
            _simulate_job(chs, rng, large, "bsc", 1, 2, 6, codes=1, linear=True),
            _simulate_job(chs, rng, large, "bsc", 1, 2, 8, codes=1)]


# --- audit: pair-type enumeration and typicality checks ---------------------

AUDIT_L = 20
AUDIT_EPSILON = 0.3


def _audit_check(spec, cfg, codes, l_max):
    def check(output):
        problems = []
        rows = _cli_rows(output, problems)
        if output[0] != 0:
            return problems
        per_code = [r for r in rows if r[0] not in ("summary", "bound")]
        if len(per_code) != codes:
            problems.append(f"{len(per_code)} code rows, expected {codes}")
        atypical = float(next(r for r in rows if r[0] == "summary")[2])
        bound = float(next(r for r in rows if r[0] == "bound")[2])
        if atypical > bound:
            problems.append(f"atypical fraction {atypical} > union bound {bound}")
        code = sim.sample_code(cfg, j=spec.dmc.num_inputs, q=spec.q, code_index=0)
        table = sim.enumerate_pair_types(code, l_max)
        for l, total in table.pair_totals.items():
            mult = sum(c for (ll, _key), c in table.entries.items() if ll == l)
            if mult != total:
                problems.append(f"l={l}: multiplicities sum to {mult}, pair total {total}")
        return problems
    return check


def _audit_job(chs, rng, name, k, codes, l_max):
    spec = getattr(chs, name)
    seed = int(rng.integers(0, 2**31))
    argv = ["audit", "--channel", chs.paths[name], "--m", "1", "--n", "2",
            "--k", str(k), "--L", str(AUDIT_L), "--codes", str(codes),
            "--epsilon", str(AUDIT_EPSILON), "--lmax", str(l_max), "--seed", str(seed)]
    cfg = sim.EnsembleConfig(m=1, n=2, k=k, L=AUDIT_L, seed=seed)
    return Job(f"audit {name} k={k} lmax={l_max} codes={codes}",
               lambda: run_cli(argv), _audit_check(spec, cfg, codes, l_max),
               "codes_audited_per_s", codes)


def audit_jobs(chs, rng):
    return [_audit_job(chs, rng, "bsc", 3, codes=10, l_max=4),
            _audit_job(chs, rng, "bsc", 4, codes=4, l_max=4),
            _audit_job(chs, rng, "bsc", 5, codes=2, l_max=4),
            _audit_job(chs, rng, "asym3", 3, codes=4, l_max=3)]


# --- registry ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    jobs: tuple                    # (Channels, rng) -> list[Job], in order
    warmups: tuple                 # (Channels) -> None, one call per route


def _warm_curve(chs):
    run_cli(["curve", "--channel", chs.paths["bsc"], "--kinds", CURVE_KINDS,
             "--rmin", "0.05", "--rmax", "0.2", "--points", "2"])


def _warm_types(chs):
    types_opt.csiszar_exponent(chs.bsc.dmc, chs.bsc.q, 0.1)
    run_cli(["dominant", "--channel", chs.paths["bsc"], "--rate", "0.1"])


def _warm_memory(chs):
    memory.extended_exponent(memory.memoryless_lift(chs.bsc.dmc), chs.bsc.q, 0.1)


def _warm_simulate(chs):
    run_cli(["simulate", "--channel", chs.paths["bsc"], "--m", "1", "--n", "2",
             "--k", "3", "--L", "20", "--trials", "100", "--seed", "0"])


def _warm_audit(chs):
    run_cli(["audit", "--channel", chs.paths["bsc"], "--m", "1", "--n", "2",
             "--k", "3", "--L", "20", "--codes", "1", "--epsilon", "0.3",
             "--lmax", "2", "--seed", "0"])


WORKLOADS = {
    "analytic": Workload((curve_jobs, types_jobs, memory_jobs),
                         (_warm_curve, _warm_types, _warm_memory)),
    "decode": Workload((decode_jobs,), (_warm_simulate,)),
    "audit": Workload((audit_jobs,), (_warm_audit,)),
}


def setup(workload, inputs_dir):
    """The timed set-up: load the channel specs and warm each route up."""
    chs = load_channels(input_paths(inputs_dir))
    for warm in WORKLOADS[workload].warmups:
        warm(chs)
    return chs


def build_jobs(workload, chs, seed):
    """The job list of one pass; the seed picks rates and ensemble seeds."""
    rng = np.random.default_rng(seed)
    return [job for make in WORKLOADS[workload].jobs for job in make(chs, rng)]
