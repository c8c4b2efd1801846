"""Print the code lines of each module of a package and their total.

A code line is a physical line that holds part of a statement.  Blank
lines, comment-only lines and the lines of docstrings (a string literal
that opens a module, class or function body) do not count.  Modules are
listed from the largest down.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to `src/trellisexp` of this checkout.  Standard
library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trellisexp"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else PACKAGE
    counts = {path.stem: code_lines(path.read_text()) for path in package.glob("*.py")}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:12} {count:5}")
    print(f"{'total':12} {sum(counts.values()):5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
