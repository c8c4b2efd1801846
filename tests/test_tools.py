"""The scripts under `tools/`, loaded by path as stand-alone files."""

import importlib.util
from pathlib import Path

CODE_LINES_PY = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

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
