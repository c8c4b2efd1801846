"""Command-line surface: channel files in, CSV/JSON reports out.

Channel spec files are JSON documents:

    {
      "input_alphabet_size": 2,
      "output_alphabet_size": 2,
      "w": [[0.9, 0.1], [0.1, 0.9]],
      "q": [0.5, 0.5],
      "units": "nats",
      "w_tilde": [[...], ...],          # optional mismatched metric
      "memory": {"w": [[[...]]], "w_tilde": null}   # optional W(y|x,x_prev)
    }

Unknown keys are rejected, and so are keys a command would ignore (exit
code 2): `curve`, `dominant` and `audit` use neither `w_tilde` nor
`memory`, and `simulate` decodes with `w_tilde` but has no use for
`memory`.  The `memory` block is read by `load_channel_spec` for library
callers.  `units` sets the units of the rates `curve` and `dominant` read
and print (`curve --units` overrides it).  All curve output is CSV with the fixed header
`rate,kind,value,rho,s` and 12 significant digits.
"""

import argparse
import functools
import json
import math
import statistics
import sys
from dataclasses import dataclass

import numpy as np

from . import exponents, sim, types_opt
from .channels import Dmc, InputDist, validate_channel
from .exponents import CURVE_KINDS, RateOutOfRange
from .memory import MarkovChannel

LN2 = math.log(2.0)

CHANNEL_KEYS = {"input_alphabet_size", "output_alphabet_size", "w", "q",
                "units", "w_tilde", "memory"}
MEMORY_KEYS = {"w", "w_tilde"}


class ChannelSpecError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelSpec:
    dmc: Dmc
    q: InputDist
    units: str = "nats"
    w_tilde: Dmc = None
    memory: MarkovChannel = None


def parse_channel_spec(text: str) -> ChannelSpec:
    """Parse and validate a channel spec; every validation failure, including
    those of `Dmc`, `InputDist` and `MarkovChannel`, is a ChannelSpecError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ChannelSpecError(f"line {e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ChannelSpecError("channel spec must be a JSON object")
    unknown = set(doc) - CHANNEL_KEYS
    if unknown:
        raise ChannelSpecError(f"unknown keys: {sorted(unknown)}")
    for key in ("input_alphabet_size", "output_alphabet_size", "w", "q"):
        if key not in doc:
            raise ChannelSpecError(f"missing key {key!r}")
    try:
        return _build_spec(doc)
    except ChannelSpecError:
        raise
    except (ValueError, TypeError) as e:
        raise ChannelSpecError(f"{type(e).__name__}: {e}") from e


def _build_spec(doc) -> ChannelSpec:
    dmc, q = validate_channel(doc["w"], doc["q"])
    if dmc.num_inputs != doc["input_alphabet_size"]:
        raise ChannelSpecError("input_alphabet_size does not match w")
    if dmc.num_outputs != doc["output_alphabet_size"]:
        raise ChannelSpecError("output_alphabet_size does not match w")
    units = doc.get("units", "nats")
    if units not in ("nats", "bits"):
        raise ChannelSpecError(f"units must be nats or bits, got {units!r}")
    w_tilde = None
    if doc.get("w_tilde") is not None:
        w_tilde = Dmc(np.asarray(doc["w_tilde"], dtype=float))
        if w_tilde.w.shape != dmc.w.shape:
            raise ChannelSpecError("w_tilde shape differs from w")
    mem = None
    if doc.get("memory") is not None:
        block = doc["memory"]
        unknown = set(block) - MEMORY_KEYS
        if unknown:
            raise ChannelSpecError(f"unknown memory keys: {sorted(unknown)}")
        if "w" not in block:
            raise ChannelSpecError("memory block needs a w entry")
        wt = None if block.get("w_tilde") is None else np.asarray(block["w_tilde"], float)
        mem = MarkovChannel(np.asarray(block["w"], dtype=float), w_tilde=wt)
    return ChannelSpec(dmc, q, units, w_tilde, mem)


def format_channel_spec(spec: ChannelSpec) -> str:
    doc = {
        "input_alphabet_size": spec.dmc.num_inputs,
        "output_alphabet_size": spec.dmc.num_outputs,
        "w": spec.dmc.w.tolist(),
        "q": spec.q.q.tolist(),
        "units": spec.units,
    }
    if spec.w_tilde is not None:
        doc["w_tilde"] = spec.w_tilde.w.tolist()
    if spec.memory is not None:
        doc["memory"] = {"w": spec.memory.w.tolist()}
        if not spec.memory.matched:
            doc["memory"]["w_tilde"] = spec.memory.w_tilde.tolist()
    return json.dumps(doc, indent=2)


def load_channel_spec(path: str) -> ChannelSpec:
    with open(path) as f:
        return parse_channel_spec(f.read())


def _fmt(x):
    if x is None:
        return ""
    return f"{x:.12g}"


def _load_spec_for(args, unused):
    """Load --channel, rejecting spec keys in `unused` that the command
    would otherwise ignore."""
    spec = load_channel_spec(args.channel)
    present = [key for key in unused if getattr(spec, key) is not None]
    if present:
        raise ChannelSpecError(f"{args.command} does not use the keys {present}")
    return spec


def cmd_curve(args) -> int:
    spec = _load_spec_for(args, ("w_tilde", "memory"))
    kinds = [k for k in args.kinds.split(",") if k]
    if not kinds:
        sys.stderr.write("error: empty kinds list\n")
        return 2
    for kind in kinds:
        if kind not in CURVE_KINDS:
            sys.stderr.write(f"error: unknown curve kind {kind!r}\n")
            return 2
    scale = LN2 if (args.units or spec.units) == "bits" else 1.0
    rmin, rmax = args.rmin * scale, args.rmax * scale  # internal rates in nats
    rates = np.linspace(rmin, rmax, args.points)
    r0 = exponents.cutoff_rate(spec.dmc, spec.q)
    errors = []
    for rate in rates:
        try:
            exponents.check_rate(rate, r0)
            errors.append(None)
        except RateOutOfRange as e:
            errors.append(e)
    # one solve per base kind on the sorted distinct valid rates; an rtimes_
    # row is its base row's value times the rate, the product exponent_curve
    # forms.  Rows keep the order of the requested grid, which may repeat or
    # decrease.
    grid = np.unique(rates[[e is None for e in errors]])
    at = np.searchsorted(grid, rates)
    curves = {}
    sys.stdout.write("rate,kind,value,rho,s\n")
    failed = 0
    for kind in kinds:
        base = kind.removeprefix("rtimes_")
        if base not in curves:
            curves[base] = exponents.exponent_curve(base, spec.dmc, spec.q, grid).points
        for rate, e, i in zip(rates, errors, at):
            if e is not None:
                sys.stderr.write(f"error: kind={kind} rate={_fmt(rate / scale)}: {e}\n")
                failed += 1
                continue
            r, value, rho = curves[base][i]
            if kind != base:
                value *= r
            sys.stdout.write(f"{_fmt(r / scale)},{kind},{_fmt(value / scale)},"
                             f"{_fmt(rho)},\n")
    return 1 if failed else 0


def cmd_simulate(args) -> int:
    spec = _load_spec_for(args, ("memory",))  # w_tilde is the decoding metric
    blocks = args.blocks
    cfg = sim.EnsembleConfig(m=args.m, n=args.n, k=args.k, L=args.L,
                             linear=args.linear, seed=args.seed)
    if args.trials is not None:
        blocks = max(1, math.ceil(args.trials / cfg.L))
    sys.stdout.write("code,seed,m,n,k,p_e,exponent,no_errors,typical,"
                     "events,nodes,wilson_low,wilson_high\n")
    p_es, exps = [], []
    for i in range(args.codes):
        code = sim.sample_code(cfg, j=spec.dmc.num_inputs, q=spec.q, code_index=i)
        rng = sim._rng(cfg.seed, i, 1)
        est = sim.estimate_error_exponent(code, spec.dmc, blocks, rng,
                                          metric=spec.w_tilde)
        typical = ""
        if args.lmax > 0:
            rep = sim.typicality_check(code, spec.q, args.epsilon, args.lmax)
            typical = "1" if rep.is_typical else "0"
        p_es.append(est.p_e)
        exps.append(est.exponent)
        sys.stdout.write(f"{i},{cfg.seed},{cfg.m},{cfg.n},{cfg.k},{_fmt(est.p_e)},"
                         f"{_fmt(est.exponent)},{int(est.no_errors)},{typical},"
                         f"{est.events},{est.nodes},{_fmt(est.wilson_low)},"
                         f"{_fmt(est.wilson_high)}\n")
    for name, stat in (("mean", statistics.mean), ("median", statistics.median)):
        sys.stdout.write(f"summary_{name},{cfg.seed},{cfg.m},{cfg.n},{cfg.k},"
                         f"{_fmt(stat(p_es))},{_fmt(stat(exps))},,,,,,\n")
    return 0


def cmd_audit(args) -> int:
    spec = _load_spec_for(args, ("w_tilde", "memory"))
    cfg = sim.EnsembleConfig(m=args.m, n=args.n, k=args.k, L=args.L,
                             seed=args.seed)
    frac, reports, bound = sim.typicality_audit(
        cfg, spec.dmc.num_inputs, spec.q, args.codes, args.epsilon, args.lmax)
    sys.stdout.write("code,is_typical,violations\n")
    for i, rep in enumerate(reports):
        sys.stdout.write(f"{i},{int(rep.is_typical)},{len(rep.violations)}\n")
    sys.stdout.write(f"summary,{_fmt(1.0 - frac)},{_fmt(frac)}\n")
    sys.stdout.write(f"bound,,{_fmt(bound)}\n")
    return 0


def cmd_dominant(args) -> int:
    spec = _load_spec_for(args, ("w_tilde", "memory"))
    scale = LN2 if spec.units == "bits" else 1.0
    rate = args.rate * scale
    try:
        rho = exponents.solve_rho("trtc", spec.dmc, spec.q, rate).rho
    except RateOutOfRange as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    if rho == math.inf:
        rhat0 = types_opt._legendre_edge(spec.dmc, spec.q)[0] / scale
        sys.stderr.write(f"error: R={args.rate} <= rhat0={rhat0:.12g}: no trtc root, "
                         "the exponent is unbounded\n")
        return 1
    ev = types_opt.dominant_joint_type(spec.dmc, spec.q, rho)
    report = {
        "rate": args.rate,
        "rho_trtc": rho,
        "p_star": ev.p_star.p.tolist(),
        "divergence": ev.divergence / scale,
        "delta_half": ev.delta_half / scale,
        "critical_length_factor": ev.critical_length_factor,
    }
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return 0


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="trellisexp",
                                description="Trellis-code error exponents")
    sub = p.add_subparsers(dest="command", required=True)
    channel = argparse.ArgumentParser(add_help=False)
    channel.add_argument("--channel", required=True)
    ensemble = argparse.ArgumentParser(add_help=False)
    for name in ("--m", "--n", "--k", "--seed"):
        ensemble.add_argument(name, type=int, required=True)
    ensemble.add_argument("--L", type=int, default=None)

    c = sub.add_parser("curve", parents=[channel], help="emit exponent curves as CSV")
    c.add_argument("--kinds", required=True,
                   help="comma list from " + ",".join(CURVE_KINDS))
    c.add_argument("--rmin", type=float, required=True)
    c.add_argument("--rmax", type=float, required=True)
    c.add_argument("--points", type=_positive_int, default=50)
    c.add_argument("--units", choices=("nats", "bits"), default=None,
                   help="units of the rates and values (default: the spec's)")
    c.set_defaults(func=cmd_curve)

    s = sub.add_parser("simulate", parents=[channel, ensemble],
                       help="Monte-Carlo ensemble simulation")
    s.add_argument("--blocks", type=_positive_int, default=100)
    s.add_argument("--codes", type=_positive_int, default=1)
    s.add_argument("--trials", type=_positive_int, default=None,
                   help="total node-trial target; overrides --blocks")
    s.add_argument("--linear", action="store_true")
    s.add_argument("--epsilon", type=_finite_float, default=0.3)
    s.add_argument("--lmax", type=int, default=0,
                   help="typicality check depth; 0 skips the flag")
    s.set_defaults(func=cmd_simulate)

    a = sub.add_parser("audit", parents=[channel, ensemble],
                       help="typicality audit of sampled codes")
    a.add_argument("--codes", type=_positive_int, required=True)
    a.add_argument("--epsilon", type=_finite_float, required=True)
    a.add_argument("--lmax", type=int, required=True)
    a.set_defaults(func=cmd_audit)

    d = sub.add_parser("dominant", parents=[channel], help="dominant error-event report")
    d.add_argument("--rate", type=float, required=True)
    d.set_defaults(func=cmd_dominant)
    return p


@functools.cache
def _parser():
    """The parser of `main`, built once per process: a parser is a cyclic
    graph of about 46 KiB that only the cyclic garbage collector frees, so
    one per call piles up between collections when `main` runs in-process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ChannelSpecError as e:
        sys.stderr.write(f"channel spec error: {e}\n")
        return 2
    except (ValueError, sim.EnumerationBudgetExceeded) as e:
        # bad ensemble arguments, found by `sim` (curve and dominant report
        # their out-of-range rates themselves, with exit 1)
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
