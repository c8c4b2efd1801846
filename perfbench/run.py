"""trellisexp benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  One process, one client: the workload's fixed job list (see
`workloads.py`) runs in passes, each job starting after the previous one
ends, until S seconds of passes have run.  Timings are medians over passes.

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh processes), pass wall time and peak memory.  --trace 1 runs half the
time untraced, which gives the throughput of each route, and half with every
public function of the layer modules wrapped (`tracer.py`), which gives the
per-pass per-layer metrics and the tracing overhead.  Outputs are checked
outside the timed region; the last line of standard output is the JSON
result.
"""

import os

# One thread everywhere: the numbers measure the program, not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics: (function, quantity) pairs reported per pass of the job
# list.  Counts come from tracer hooks; the rest are span aggregates.
PER_LAYER = [
    ("exponents.expurgated_ex", ("calls", "self_s")),
    ("exponents.solve_rho", ("calls", "self_s", "cap_hits")),
    ("exponents.cutoff_rate", ("calls", "self_s")),
    ("exponents.gallager_e0", ("calls", "self_s")),
    ("exponents.exponent_curve", ("calls", "self_s")),
    ("channels.bhattacharyya_matrix", ("calls", "self_s")),
    ("channels.chernoff_matrix", ("calls", "self_s")),
    ("types_opt.z_of_rhat_legendre", ("calls", "self_s")),
    ("types_opt.csiszar_exponent", ("calls", "self_s")),
    ("types_opt.dominant_joint_type", ("calls", "self_s")),
    ("memory.perron_frobenius", ("calls", "self_s")),
    ("memory.build_tilted", ("calls", "self_s")),
    ("memory.extended_cutoff", ("calls", "self_s")),
    ("memory.extended_exponent", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
    ("sim.viterbi_decode", ("calls", "self_s", "acs_ops", "acs_ops_per_s", "choice_bytes")),
    ("sim.encode", ("calls", "self_s")),
    ("sim.transmit", ("calls", "self_s")),
    ("sim.estimate_error_exponent", ("calls", "self_s")),
    ("sim.enumerate_pair_types", ("calls", "self_s", "pairs", "types",
                                  "types_per_pair", "pairs_per_s")),
    ("sim.typicality_check", ("calls", "self_s", "entries")),
    ("sim.sample_code", ("calls", "self_s")),
]
UNITS = {"calls": "count", "self_s": "s", "cap_hits": "count", "acs_ops": "count",
         "acs_ops_per_s": "1/s", "choice_bytes": "B", "pairs": "count",
         "types": "count", "types_per_pair": "ratio", "pairs_per_s": "1/s",
         "entries": "count"}
# Calls of one function per work item of one route: (name, function, route).
CALL_RATIOS = [
    ("ex_calls_per_curve_point", "exponents.expurgated_ex", "curve_points_per_s"),
    ("ex_calls_per_csiszar_point", "exponents.expurgated_ex", "csiszar_points_per_s"),
    ("pf_calls_per_ext_point", "memory.perron_frobenius", "ext_points_per_s"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import trellisexp from this checkout's src/, or exit non-zero."""
    if not (SRC / "trellisexp" / "__init__.py").is_file():
        sys.exit(f"error: no trellisexp source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import trellisexp
    if not Path(trellisexp.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported trellisexp from {trellisexp.__file__}, not {SRC}")
    import workloads
    return workloads


def measure_setup(workload, inputs_dir):
    """Wall time of fresh processes that import trellisexp, load the channel
    specs and warm each route up (`probe.py`); the median of several."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(inputs_dir)],
                       check=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


class Runner:
    """Runs passes of one job list and keeps per-pass timings and results."""

    def __init__(self, jobs, tracer=None):
        self.jobs = jobs
        self.tracer = tracer
        self.first_outputs = [None] * len(jobs)
        self.checked = [False] * len(jobs)
        self.pass_wall = []
        self.pass_route_time = []    # per pass: {route: seconds in its jobs}
        self.job_pass = []           # pass index of every global job id
        self.attempted = 0
        self.failed = 0
        self.problems = []           # (job label or "trace", [messages])

    def run_for(self, seconds):
        """Run whole passes until `seconds` of pass time have elapsed."""
        spent = 0.0
        first = len(self.pass_wall)
        while spent < seconds or len(self.pass_wall) == first:
            spent += self.run_pass()
        return self.pass_wall[first:]

    def run_pass(self):
        p = len(self.pass_wall)
        timings, outputs = [], []
        t_pass = time.perf_counter()
        for job in self.jobs:
            if self.tracer is not None:
                self.tracer.job_id = len(self.job_pass)
            self.job_pass.append(p)
            t0 = time.perf_counter()
            try:
                out, error = job.run(), None
            except Exception:
                out, error = None, traceback.format_exc()
            timings.append(time.perf_counter() - t0)
            outputs.append((out, error))
        wall = time.perf_counter() - t_pass
        self.pass_wall.append(wall)
        route_time = {}
        for t, job in zip(timings, self.jobs):
            if job.route:
                route_time[job.route] = route_time.get(job.route, 0.0) + t
        self.pass_route_time.append(route_time)
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            self._check(outputs)
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True
        return wall

    def _check(self, outputs):
        """Check each job's output once, then require later passes to repeat it."""
        for i, (job, (out, error)) in enumerate(zip(self.jobs, outputs)):
            self.attempted += 1
            if error is not None:
                problems = [error.strip().splitlines()[-1]]
            elif not self.checked[i]:
                self.checked[i] = True
                self.first_outputs[i] = out
                try:
                    problems = job.check(out)
                except Exception:  # malformed output: a failed check, not a crash
                    problems = [traceback.format_exc().strip().splitlines()[-1]]
            elif out != self.first_outputs[i]:
                problems = ["output differs from the first pass"]
            else:
                problems = []
            if problems:
                self.failed += 1
                self.problems.append((job.label, problems))


def route_items(jobs):
    """{route: work items of one pass} for the routes the job list runs."""
    items = {}
    for job in jobs:
        if job.route:
            items[job.route] = items.get(job.route, 0) + job.items
    return items


def route_rates(runner, jobs, passes, routes):
    """Median over `passes` of each route's items ÷ time in its jobs; 0 for a
    route the workload does not run."""
    items = route_items(jobs)
    return {r: statistics.median(items[r] / runner.pass_route_time[p][r] for p in passes)
            if r in items else 0.0 for r in routes}


def manifest(args, jobs):
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "jobs": [{"label": j.label, "route": j.route, "items": j.items} for j in jobs],
    }


def end_to_end(runner, setup):
    return {
        "setup_s": setup,
        "wall_s": statistics.median(runner.pass_wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, runner, jobs, traced_from, routes):
    """Per-pass layer metrics from the traced passes (medians of times; the
    counts must repeat exactly in every traced pass), route throughputs from
    the untraced passes, and the tracing overhead."""
    n_pass = len(runner.pass_wall)
    # group 0: jobs outside any route; group i + 1: jobs of routes[i]
    group = [routes.index(j.route) + 1 if j.route else 0 for j in jobs]
    job_group = [group[j % len(jobs)] for j in range(len(runner.job_pass))]
    agg = tracer.aggregate(runner.job_pass, job_group, n_pass, len(routes) + 1)
    traced = list(range(traced_from, n_pass))
    by_pass = {k: v[traced].sum(axis=1) for k, v in agg.items()}   # (pass, fn)
    idx = {name: i for i, name in enumerate(tracer.names)}
    metrics, unsteady = {}, []

    def counted(values, name):
        if np.any(values != values[0]):
            unsteady.append(name)
        return int(values[0])

    for fn, quantities in PER_LAYER:
        i = idx[fn]
        calls = counted(by_pass["calls"][:, i], f"{fn}.calls")
        total = statistics.median(by_pass["total_s"][:, i])
        for q in quantities:
            if q == "calls":
                v = calls
            elif q == "self_s":
                v = statistics.median(by_pass["self_s"][:, i])
            elif q == "acs_ops_per_s":
                v = metrics[f"{fn}.acs_ops"]["value"] / total if total else 0.0
            elif q == "types_per_pair":
                pairs = metrics[f"{fn}.pairs"]["value"]
                v = metrics[f"{fn}.types"]["value"] / pairs if pairs else 0.0
            elif q == "pairs_per_s":
                v = metrics[f"{fn}.pairs"]["value"] / total if total else 0.0
            elif q == "choice_bytes":  # the largest traceback array of one call
                v = _max_count(tracer, idx[fn], "choice_bytes")
            elif q in by_pass:
                v = counted(by_pass[q][:, i], f"{fn}.{q}")
            else:
                v = 0
            metrics[f"{fn}.{q}"] = {"value": v, "unit": UNITS[q]}
    items = route_items(jobs)
    for name, fn, route in CALL_RATIOS:
        calls = counted(agg["calls"][traced, routes.index(route) + 1, idx[fn]], name)
        v = calls / items[route] if route in items else 0.0
        metrics[name] = {"value": v, "unit": "calls/item"}
    untraced = range(traced_from)
    for route, v in route_rates(runner, jobs, untraced, routes).items():
        metrics[route] = {"value": v, "unit": "1/s"}
    untraced_wall = statistics.median(runner.pass_wall[:traced_from])
    traced_wall = statistics.median(runner.pass_wall[traced_from:])
    metrics["tracing_overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return metrics, agg, unsteady


def _max_count(tracer, fid, name):
    fn = np.frombuffer(tracer.fn, dtype=np.int64)
    return max((c[name] for i, c in tracer.counts if fn[i] == fid and name in c), default=0)


def layer_table(tracer, agg, traced_from, wall):
    """Rows (function, calls, total_s, self_s, self share) per traced pass."""
    rows = []
    for i, name in enumerate(tracer.names):
        calls = int(np.median(agg["calls"][traced_from:, :, i].sum(axis=1)))
        if calls == 0:
            continue
        total = float(np.median(agg["total_s"][traced_from:, :, i].sum(axis=1)))
        self_s = float(np.median(agg["self_s"][traced_from:, :, i].sum(axis=1)))
        rows.append((name, calls, total, self_s, self_s / wall))
    return sorted(rows, key=lambda r: -r[3])


def main(argv=None):
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    inputs_dir = OUT / "inputs"
    workloads.write_inputs(inputs_dir)

    chs = workloads.setup(args.workload, inputs_dir)
    jobs = workloads.build_jobs(args.workload, chs, args.seed)
    info = manifest(args, jobs)

    if args.trace == 0:
        setup, probe_times = measure_setup(args.workload, inputs_dir)
        info["setup_probes_s"] = probe_times
        runner = Runner(jobs)
        runner.run_for(args.seconds)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end(runner, setup).items()}
        extra = {"route_rates": {r: v for r, v in route_rates(
            runner, jobs, range(len(runner.pass_wall)), workloads.ROUTES).items() if v}}
    else:
        from tracer import Tracer
        tracer = Tracer()
        runner = Runner(jobs, tracer)
        runner.run_for(args.seconds / 2)
        traced_from = len(runner.pass_wall)
        tracer.install()
        try:
            runner.run_for(args.seconds / 2)
        finally:
            tracer.uninstall()
        metrics, agg, unsteady = per_layer(tracer, runner, jobs, traced_from,
                                           workloads.ROUTES)
        for name in unsteady:
            runner.problems.append(("trace", [f"{name} differs between traced passes"]))
        untraced_wall = statistics.median(runner.pass_wall[:traced_from])
        traced_wall = statistics.median(runner.pass_wall[traced_from:])
        table = layer_table(tracer, agg, traced_from, traced_wall)
        extra = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
                 "layers": [dict(zip(("function", "calls", "total_s", "self_s", "self_share"), r))
                            for r in table]}
        np.savez(OUT / f"{args.workload}.spans.npz", names=np.array(tracer.names),
                 job_pass=np.array(runner.job_pass),
                 job_label=np.array([jobs[j % len(jobs)].label
                                     for j in range(len(runner.job_pass))]),
                 **tracer.spans())

    result = {"correct": not runner.problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    report(args, info, runner, metrics, extra)
    with open(OUT / f"{args.workload}.trace{args.trace}.json", "w") as f:
        json.dump({"manifest": info, "passes_s": runner.pass_wall,
                   "problems": runner.problems, **extra, **result}, f, indent=1)
    print(json.dumps(result))
    return 0


def report(args, info, runner, metrics, extra):
    print(f"# manifest {json.dumps(info)}")
    print(f"# {args.workload} seed={args.seed}: {len(runner.pass_wall)} passes, "
          f"{runner.attempted} jobs, failed_frac "
          f"{runner.failed / runner.attempted:.4g} ratio")
    for label, problems in runner.problems[:20]:
        print(f"# FAILED {label}: {'; '.join(problems)[:500]}")
    idle = [name for name, m in metrics.items() if m["value"] == 0]
    for name, m in metrics.items():
        if m["value"] != 0:
            print(f"#   {name:42s} {m['value']:>14.6g} {m['unit']}")
    if idle:
        print(f"#   ({len(idle)} per-layer metrics are 0: those layers are idle here)")
    for route, v in extra.get("route_rates", {}).items():
        print(f"#   {route:42s} {v:>14.6g} 1/s (route throughput; per-layer metric)")
    if "layers" in extra:
        print(f"# self time per traced pass (pass wall {extra['traced_wall_s']:.4g} s, "
              f"untraced {extra['untraced_wall_s']:.4g} s):")
        for row in extra["layers"]:
            print(f"#   {row['function']:34s} calls {row['calls']:>8d}  total "
                  f"{row['total_s']:9.4f} s  self {row['self_s']:9.4f} s "
                  f"{100 * row['self_share']:5.1f}%")


if __name__ == "__main__":
    sys.exit(main())
