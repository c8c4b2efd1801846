"""Print a digest of every benchmark job's output, one line per job.

    python3 tools/job_outputs.py [CHECKOUT]

For each workload of `perfbench/workloads.py` (analytic, decode, audit) at
seeds 1-3, builds the job list of one pass, runs each job once and prints

    workload <TAB> seed <TAB> index <TAB> label <TAB> sha256 of repr(output)

with the temporary directory of the channel inputs replaced by a fixed
name, so that two runs of one tree print the same lines.  CHECKOUT defaults
to the checkout holding this script; the program is imported from its
`src/` and the job lists from its `perfbench/`, which is only read (no
bytecode is written there).  Diffing the output of two checkouts shows
which jobs changed their output:

    python3 tools/job_outputs.py OLD > old.txt
    python3 tools/job_outputs.py NEW > new.txt
    diff old.txt new.txt
"""

import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
WORKLOADS = ("analytic", "decode", "audit")
SEEDS = (1, 2, 3)


def load_workloads(checkout):
    """The `perfbench/workloads.py` module of a checkout, with its program
    imported from the checkout's `src/`."""
    checkout = Path(checkout).resolve()
    sys.path.insert(0, str(checkout / "src"))
    import trellisexp
    if not Path(trellisexp.__file__).resolve().is_relative_to(checkout / "src"):
        raise ImportError(f"trellisexp was imported from {trellisexp.__file__}, "
                          f"not from {checkout / 'src'}")
    spec = importlib.util.spec_from_file_location(
        "job_outputs_workloads", checkout / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def job_lines(checkout=CHECKOUT, workloads=WORKLOADS, seeds=SEEDS):
    """The output line of each job, in workload, seed and job order."""
    bench = load_workloads(checkout)
    with tempfile.TemporaryDirectory() as tmp:
        inputs_dir = Path(tmp) / "inputs"
        bench.write_inputs(inputs_dir)
        chs = bench.load_channels(bench.input_paths(inputs_dir))
        for workload in workloads:
            for seed in seeds:
                for index, job in enumerate(bench.build_jobs(workload, chs, seed)):
                    text = repr(job.run()).replace(str(inputs_dir), "INPUTS")
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    yield f"{workload}\t{seed}\t{index}\t{job.label}\t{digest}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    for line in job_lines(args[0] if args else CHECKOUT):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
