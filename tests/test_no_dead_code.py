"""Every library name has a caller outside the tests, every attribute a
library object stores has a reader, and every name a library module
imports is used in it.

Each top-level function or class in `src/liechar/`, and each non-dunder
method of a top-level class, must be referenced somewhere in `src/` or in
the non-test files of `perfbench/`, outside its own definition. A top-level
name counts as referenced on a word match; a method only as `.name` or
`"name"` (a getattr or a dispatch table). A name that only tests reach is
deleted, or moved into the tests that need it; there is no exemption.

A name match cannot tell apart two classes' methods of one name: a call of
`FiniteField.mul` also matches `TruncatedMatrix.mul`. So every method whose
name two or more library classes define must also run, in a fresh
interpreter, during `selftest --seed 0` and the in-process calls of
`tests/cli_sequence.py`, as recorded by `sys.setprofile`.

Each attribute that a method of a top-level library class stores as
`self.x = ...` must be read in the same files: loaded as `.x`, or named by
the string constant "x" (a getattr or a dispatch table); docstrings and
`__slots__` entries do not count. The match is by name, like the one for
methods, so it cannot tell two classes' attributes of one name apart: a
stored `EndoscopicTriple.ambient` would pass, because
`CenterDiagramAction.ambient` is read.
"""

import ast
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "liechar"


def _is_docstring(node):
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
        node.value.value, str
    )


def _caller_paths():
    """Every file that counts as a caller: `src/` and the non-test files of
    `perfbench/`."""
    paths = sorted((ROOT / "src").rglob("*.py"))
    return paths + sorted(
        p for p in (ROOT / "perfbench").rglob("*.py")
        if not p.name.startswith(("test_", "conftest"))
    )


def _caller_sources():
    """(path, lines) of every caller file. Imports, `__all__` lists,
    docstrings and comments name a function without calling it, so they
    are blanked."""
    out = []
    for path in _caller_paths():
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                row, col = tok.start
                lines[row - 1] = lines[row - 1][:col]
        for node in ast.walk(ast.parse(text, filename=str(path))):
            exports = isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            )
            if exports or _is_docstring(node) or isinstance(node, (ast.Import, ast.ImportFrom)):
                for number in range(node.lineno, node.end_lineno + 1):
                    lines[number - 1] = ""
        out.append((path, lines))
    return out


def _first_line(node):
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _definitions():
    """(qualified name, path, first line, last line, pattern) for every name
    the rule covers; lines are 1-based, decorators included."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    out = []
    for path in sorted(LIBRARY.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            out.append((node.name, path, _first_line(node), node.end_lineno, word))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, defs[:2]):
                    continue
                if item.name.startswith("__") and item.name.endswith("__"):
                    continue
                name = re.escape(item.name)
                member = re.compile(rf"\.{name}\b|[\"']{name}[\"']")
                qualname = f"{node.name}.{item.name}"
                out.append((qualname, path, _first_line(item), item.end_lineno, member))
    return out


def _unreferenced():
    """(path, qualified name) of every covered name without a reference."""
    sources = _caller_sources()
    return [
        (def_path.relative_to(ROOT), qualname)
        for qualname, def_path, first, last, pattern in _definitions()
        if not any(
            pattern.search(line)
            for path, lines in sources
            for number, line in enumerate(lines, start=1)
            if not (path == def_path and first <= number <= last)
        )
    ]


def test_every_library_name_has_a_non_test_caller():
    missing = [f"{path}: {name}" for path, name in _unreferenced()]
    assert not missing, "only tests reach:\n" + "\n".join(missing)


def _stored_attributes():
    """(path, class name, attribute) for every `self.x` that a method of a
    top-level library class assigns."""
    out = set()
    for path in sorted(LIBRARY.rglob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    out.add((path, cls.name, node.attr))
    return sorted(out)


def _read_names():
    """Every attribute loaded as `.x` in a caller file, and every string
    constant there other than docstrings and `__slots__` entries."""
    names = set()
    for path in _caller_paths():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        skip = set()
        for node in ast.walk(tree):
            if _is_docstring(node):
                skip.add(node.value)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                skip.update(ast.walk(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node not in skip:
                names.add(node.value)
    return names


def test_every_stored_attribute_is_read():
    read = _read_names()
    unread = [
        f"{path.relative_to(ROOT)}: {cls}.{attr}"
        for path, cls, attr in _stored_attributes()
        if attr not in read
    ]
    assert not unread, "stored, never read:\n" + "\n".join(unread)


def _unused_imports():
    """(path, line, name) for every name that a module-level import of a
    non-`__init__` library module binds and that module never uses as a
    name. Import lines are blanked in `_caller_sources`, so a deletion that
    leaves its import behind is seen only here."""
    out = []
    for path in sorted(LIBRARY.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in used:
                        out.append((path.relative_to(ROOT), node.lineno, name))
    return out


def test_every_imported_name_is_used():
    unused = [f"{path}:{line}: {name}" for path, line, name in _unused_imports()]
    assert not unused, "imported, never used:\n" + "\n".join(unused)


# run in a fresh interpreter, so that no cache filled by an earlier test
# hides a call
_TRACE = """
import contextlib, io, json, sys
import cli_sequence
import liechar.cli as cli

seen = set()

def record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        seen.add((code.co_filename, code.co_name, code.co_firstlineno))

sys.setprofile(record)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["selftest", "--seed", "0"])
for argv in cli_sequence.SEQUENCE:
    cli_sequence.in_process(argv)
sys.setprofile(None)
json.dump(sorted(seen), sys.stdout)
"""


def _traced_calls():
    """{(path, function name): first lines} of every Python function that
    `_TRACE` enters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE], capture_output=True, text=True, env=env, cwd=ROOT, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    out = {}
    for path, name, line in json.loads(proc.stdout):
        out.setdefault((Path(path).resolve(), name), set()).add(line)
    return out


def _shared_methods():
    """(qualified name, path, first line, last line) of every method whose
    name two or more classes define."""
    by_name = {}
    for qualname, path, first, last, _ in _definitions():
        _, _, name = qualname.partition(".")
        if name:
            by_name.setdefault(name, []).append((qualname, path, first, last))
    return [d for defs in by_name.values() if len(defs) >= 2 for d in defs]


def test_every_method_with_a_shared_name_runs():
    ran = _traced_calls()
    shared = _shared_methods()
    assert shared, "no two library classes share a method name"
    missing = [
        f"{path.relative_to(ROOT)}: {qualname}"
        for qualname, path, first, last in shared
        if not any(
            first <= line <= last
            for line in ran.get((path.resolve(), qualname.rpartition(".")[2]), ())
        )
    ]
    assert not missing, "never called:\n" + "\n".join(missing)
