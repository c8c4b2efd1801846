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
from .channels import Dmc, InputDist, _check_nonnegative, _metric, validate_channel
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
        w_tilde = Dmc(doc["w_tilde"])
        _metric(w_tilde.w, "w_tilde", dmc.w.shape)
    mem = None
    if doc.get("memory") is not None:
        block = doc["memory"]
        unknown = set(block) - MEMORY_KEYS
        if unknown:
            raise ChannelSpecError(f"unknown memory keys: {sorted(unknown)}")
        if "w" not in block:
            raise ChannelSpecError("memory block needs a w entry")
        mem = MarkovChannel(block["w"], w_tilde=block.get("w_tilde"))
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
        raise ValueError("empty kinds list")
    for kind in kinds:
        if kind not in CURVE_KINDS:
            raise ValueError(f"unknown curve kind {kind!r}")
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
    # one solve per base kind on the valid rates, in grid order; an rtimes_
    # row is its base row's value times the rate, the product exponent_curve
    # forms.  Each valid rate, and each base kind's value and rho, is
    # formatted once, and the CSV is written in one piece.
    valid = rates[[e is None for e in errors]]
    rate_cells = [_fmt(r / scale) for r in valid.tolist()]
    curves = {}
    lines = ["rate,kind,value,rho,s\n"]
    for kind in kinds:
        base = kind.removeprefix("rtimes_")
        if base not in curves:
            points = exponents.exponent_curve(base, spec.dmc, spec.q, valid).points
            curves[base] = points, [_fmt(rho) for _r, _value, rho in points]
        points, rho_cells = curves[base]
        lines += [f"{rate},{kind},{_fmt((value * r if kind != base else value) / scale)},{rho},\n"
                  for rate, (r, value, _rho), rho in zip(rate_cells, points, rho_cells)]
    messages = [f"error: kind={kind} rate={_fmt(rate / scale)}: {e}\n"
                for kind in kinds for rate, e in zip(rates, errors) if e is not None]
    sys.stdout.write("".join(lines))
    sys.stderr.write("".join(messages))
    return 1 if messages else 0


def cmd_simulate(args) -> int:
    spec = _load_spec_for(args, ("memory",))  # w_tilde is the decoding metric
    _check_nonnegative("l_max", args.lmax)  # audit's message, from `enumerate_pair_types`
    blocks = args.blocks
    cfg = sim.EnsembleConfig(m=args.m, n=args.n, k=args.k, L=args.L,
                             linear=args.linear, seed=args.seed)
    if args.trials is not None:
        blocks = max(1, math.ceil(args.trials / cfg.L))
    p_es, exps = [], []

    def row(i):
        code = sim.sample_code(cfg, j=spec.dmc.num_inputs, q=spec.q, code_index=i)
        est = sim.estimate_error_exponent(code, spec.dmc, blocks, sim._rng(cfg.seed, i, 1),
                                          metric=spec.w_tilde)
        typical = ""
        if args.lmax > 0:
            rep = sim.typicality_check(code, spec.q, args.epsilon, args.lmax)
            typical = "1" if rep.is_typical else "0"
        p_es.append(est.p_e)
        exps.append(est.exponent)
        return (f"{i},{cfg.seed},{cfg.m},{cfg.n},{cfg.k},{_fmt(est.p_e)},"
                f"{_fmt(est.exponent)},{int(est.no_errors)},{typical},"
                f"{est.events},{est.nodes},{_fmt(est.wilson_low)},"
                f"{_fmt(est.wilson_high)}\n")

    first = row(0)  # before any output: an ensemble error leaves stdout empty
    sys.stdout.write("code,seed,m,n,k,p_e,exponent,no_errors,typical,"
                     "events,nodes,wilson_low,wilson_high\n" + first)
    for i in range(1, args.codes):
        sys.stdout.write(row(i))
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
    try:
        ev = types_opt.dominant_joint_type(spec.dmc, spec.q, args.rate * scale)
    except RateOutOfRange as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    report = {
        "rate": args.rate,
        "rho_trtc": ev.rho,
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
    c.add_argument("--rmin", type=_finite_float, required=True)
    c.add_argument("--rmax", type=_finite_float, required=True)
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
        # bad ensemble arguments, found by `sim`, and bad curve kinds (curve
        # and dominant report their out-of-range rates themselves, with exit 1)
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
