"""The scripts under `tools/`, loaded by path as stand-alone files."""

import importlib.util
import re
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
CODE_LINES_PY = TOOLS / "code_lines.py"
JOB_OUTPUTS_PY = TOOLS / "job_outputs.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment-only line


def f(x):
    """One-line docstring."""
    y = (x +
         1)
    return """a string that is not a
docstring"""


class C:
    """Class
    docstring."""

    z = math.pi
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path, capsys):
    code_lines = _load("code_lines", CODE_LINES_PY)
    # import, def, the two lines of y, the two of the return, class, z
    assert code_lines.code_lines(SOURCE) == 8
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nX = 1\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a", "8", "b", "1", "total", "9"]


def test_job_outputs_one_stable_line_per_job(tmp_path):
    # two runs write their inputs to two temporary directories and must
    # print the same lines: one per job, in the order of each job list
    job_outputs = _load("job_outputs", JOB_OUTPUTS_PY)
    lines = list(job_outputs.job_lines(workloads=("analytic", "audit"), seeds=(1,)))
    assert list(job_outputs.job_lines(workloads=("analytic", "audit"), seeds=(1,))) == lines
    bench = job_outputs.load_workloads(job_outputs.CHECKOUT)
    bench.write_inputs(tmp_path)
    chs = bench.load_channels(bench.input_paths(tmp_path))
    want = [[workload, "1", str(index), job.label] for workload in ("analytic", "audit")
            for index, job in enumerate(bench.build_jobs(workload, chs, 1))]
    assert [line.split("\t")[:4] for line in lines] == want
    assert all(re.fullmatch("[0-9a-f]{64}", line.split("\t")[4]) for line in lines)
