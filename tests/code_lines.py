"""Code lines of each module of `src/liechar`, and their total.

A code line is a physical line that carries a token of code: blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function) do not count. A statement over several lines
counts each of its lines. Prints one "count path" line per module, then
the total, for `src/liechar` or for the package directory given:

    python tests/code_lines.py [package-dir]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "liechar"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    """Line numbers of the docstrings of the module and of every class and
    function in it."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(path):
    text = path.read_text(encoding="utf-8")
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(root=LIBRARY):
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path.relative_to(root)}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else LIBRARY)
