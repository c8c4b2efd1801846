"""The library surface that the benchmark harness in `perfbench/` reads.

Its tracer reads `exponents.RHO_MAX` and the `.rho` of `solve_rho`'s result,
counts pair types from `enumerate_pair_types(...)` (`entries` and
`pair_totals`) and ACS operations from a code's `cfg`, and counts eigenvalue
solves by patching the module attribute `memory.perron_frobenius`.  Its
decode jobs size their trials as one full `viterbi_decode` batch per code,
which holds only while `sim.DECODE_BATCH` equals the workloads' own copy.
A change that breaks one of these would otherwise show only in a traced
benchmark run.
Its per-layer table looks up each function named in `run.py`'s
`PER_LAYER` among the functions that the tracer wraps, so each of them must
stay a public function of its module, also one that no library code calls
(`memory.build_tilted`, `types_opt.z_of_rhat_legendre`).
The smoke test runs each workload's set-up and the first job of each of its
routes, checked by the job's own output check, so that a break in what the
workloads call (`cli.load_channel_spec`, `validate_channel`, ...) shows here
and not only as a failed benchmark run.
The coverage guard runs one pass of each workload's job list under the
tracer and pins which `PER_LAYER` functions it sees called, so that a
change which routes a workload around a traced function (and leaves its
metrics reading 0) shows here too.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from trellisexp import exponents, memory, sim

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
RUN_PY = WORKLOADS_PY.with_name("run.py")
TRACER_PY = WORKLOADS_PY.with_name("tracer.py")

# the PER_LAYER functions that one pass of each workload calls
TRACED = {
    "analytic": {"cli.main", "exponents.cutoff_rate", "exponents.gallager_e0",
                 "exponents.exponent_curve", "channels.bhattacharyya_matrix",
                 "types_opt.csiszar_exponent", "types_opt.dominant_joint_type",
                 "memory.perron_frobenius", "memory.extended_exponent"},
    "decode": {"cli.main", "sim.sample_code", "sim.encode", "sim.transmit",
               "sim.viterbi_decode", "sim.estimate_error_exponent"},
    "audit": {"cli.main", "sim.sample_code", "sim.enumerate_pair_types",
              "sim.typicality_check"},
}
# and those that no workload calls, whose metrics read 0 everywhere
IDLE = {"exponents.expurgated_ex", "exponents.solve_rho", "channels.chernoff_matrix",
        "types_opt.z_of_rhat_legendre", "memory.build_tilted", "memory.extended_cutoff"}


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


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("perfbench_workloads", WORKLOADS_PY)


def test_decode_jobs_are_one_batch_per_code(workloads):
    # each decode job asks for DECODE_BATCH * L node trials per code, so
    # that every code is one full viterbi_decode batch
    assert sim.DECODE_BATCH == workloads.DECODE_BATCH


@pytest.mark.parametrize("name", ["analytic", "decode", "audit"])
def test_workload_smoke(workloads, tmp_path, name):
    workloads.write_inputs(tmp_path)
    chs = workloads.setup(name, tmp_path)
    firsts = {}
    for job in workloads.build_jobs(name, chs, seed=1):
        firsts.setdefault(job.route, job)  # dominant jobs have no route
    for job in firsts.values():
        assert job.check(job.run()) == [], job.label


def _per_layer_names():
    """The function names of `run.py`'s PER_LAYER, read from its source:
    importing `run.py` sets thread environment variables."""
    tree = ast.parse(RUN_PY.read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["PER_LAYER"])
    return [name for name, _quantities in ast.literal_eval(value)]


@pytest.mark.parametrize("qualified", _per_layer_names())
def test_per_layer_name_is_traced(qualified):
    # the tracer's rule (`tracer.layer_functions`): a function defined in
    # its layer's module, not private, and only `main` of the cli layer
    layer, name = qualified.split(".")
    module = importlib.import_module(f"trellisexp.{layer}")
    fn = vars(module).get(name)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    assert not name.startswith("_") and (layer != "cli" or name == "main")


def test_idle_names_are_the_untraced_rest():
    assert IDLE == set(_per_layer_names()).difference(*TRACED.values())


@pytest.mark.parametrize("name", ["analytic", "decode", "audit"])
def test_tracer_sees_each_workload_layer(workloads, tmp_path, name):
    tracer = _load("perfbench_tracer", TRACER_PY).Tracer()
    workloads.write_inputs(tmp_path)
    jobs = workloads.build_jobs(name, workloads.setup(name, tmp_path), seed=1)
    tracer.install()
    try:
        for job in jobs:
            job.run()
    finally:
        tracer.uninstall()
    called = {tracer.names[i] for i in set(tracer.fn)}
    assert called.intersection(_per_layer_names()) == TRACED[name]
