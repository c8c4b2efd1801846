"""One set-up of a workload in a fresh process, timed by run.py.

    python3 perfbench/probe.py WORKLOAD INPUTS_DIR

Imports trellisexp from the checkout's src/, loads the channel specs and
makes one warm-up call per route of the workload, then exits.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    import workloads

    workloads.setup(sys.argv[1], Path(sys.argv[2]))
