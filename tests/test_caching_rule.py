"""The one caching rule: `exact_math.cached`.

Every owner of derived structures (a root datum, a group, a torus, a twisted
torus) keeps them in its `derived` dict, and only `cached` reads or writes
that dict. No library function memoises itself with `lru_cache`, except the
registries that keep one object per input (`build_finite_group`,
`build_root_datum`), the memos of the cyclotomic polynomials and of a
cyclotomic value's text, and the CLI's parser.
"""

import ast
from pathlib import Path

import pytest

from liechar.exact_math import cached

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "liechar"

# (file, qualified function) that may read or write `.derived`
DERIVED_ACCESS = {("exact_math/cache.py", "cached")}

# (file, function) that may be memoised by functools
MEMOISED = {
    ("finite_lie.py", "build_finite_group"),
    ("root_datum.py", "build_root_datum"),
    ("exact_math/cyclo.py", "_phi_terms"),
    ("exact_math/cyclo.py", "_text"),
    ("cli.py", "_parser"),
}

FUNCTOOLS_CACHES = {"lru_cache", "cache"}


def _walk(node, scope):
    """(node, qualified name of the enclosing function or class) for every
    node below node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield child, inner
        yield from _walk(child, inner)


def _library_nodes():
    for path in sorted(LIBRARY.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        rel = path.relative_to(LIBRARY).as_posix()
        for node, scope in _walk(tree, ""):
            yield rel, node, scope


def _is_empty_init(node, scope):
    """`self.derived = {}` in a constructor."""
    return (
        isinstance(node, ast.Assign)
        and scope.endswith(".__init__")
        and isinstance(node.value, ast.Dict)
        and not node.value.keys
        and all(
            isinstance(t, ast.Attribute) and t.attr == "derived" and isinstance(t.value, ast.Name)
            for t in node.targets
        )
    )


def derived_violations():
    """`file:line scope` of every access to `.derived` outside `cached` and
    the constructors' empty dicts."""
    inits = set()
    accesses = []
    for rel, node, scope in _library_nodes():
        if _is_empty_init(node, scope):
            inits.update(id(t) for t in node.targets)
        if isinstance(node, ast.Attribute) and node.attr == "derived":
            accesses.append((rel, node, scope))
    return [
        f"{rel}:{node.lineno} {scope or '<module>'}"
        for rel, node, scope in accesses
        if id(node) not in inits and (rel, scope) not in DERIVED_ACCESS
    ]


def _is_functools_cache(node, names):
    """node names functools.lru_cache or functools.cache; names are what the
    file imported them as. Any attribute `lru_cache` counts."""
    if isinstance(node, ast.Name):
        return node.id in names
    return node.attr == "lru_cache" or (
        node.attr in FUNCTOOLS_CACHES and isinstance(node.value, ast.Name) and node.value.id == "functools"
    )


def memo_violations():
    """`file:line scope` of every use of functools' caches outside the
    decorators of the listed registries and memos."""
    names, allowed, uses = {}, set(), []
    for rel, node, scope in _library_nodes():
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.setdefault(rel, set()).update(
                a.asname or a.name for a in node.names if a.name in FUNCTOOLS_CACHES
            )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (rel, node.name) in MEMOISED:
            allowed.update(id(n) for dec in node.decorator_list for n in ast.walk(dec))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            uses.append((rel, node, scope))
    return [
        f"{rel}:{node.lineno} {scope or '<module>'}"
        for rel, node, scope in uses
        if _is_functools_cache(node, names.get(rel, ())) and id(node) not in allowed
    ]


def test_only_cached_and_the_exceptions_touch_derived():
    bad = derived_violations()
    assert not bad, "hand-written cache sites (use exact_math.cached):\n" + "\n".join(bad)


def test_no_library_function_is_memoised_outside_the_registries():
    bad = memo_violations()
    assert not bad, "functools caches outside the registries:\n" + "\n".join(bad)


def test_every_listed_site_exists():
    scopes = {(rel, scope) for rel, _, scope in _library_nodes()}
    assert DERIVED_ACCESS <= scopes
    names = {
        (rel, node.name)
        for rel, node, _ in _library_nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert MEMOISED <= names


class _Owner:
    def __init__(self):
        self.derived = {}


def test_cached_builds_once():
    owner, calls = _Owner(), []

    def build(o):
        calls.append(o)
        return ("value", len(calls))

    first = cached(owner, "k", build)
    assert cached(owner, "k", build) is first
    assert calls == [owner]
    assert owner.derived == {"k": first}
    # a falsy value is a stored value too
    assert cached(owner, ("tag", 0), lambda o: False) is False
    assert cached(owner, ("tag", 0), build) is False
    assert len(calls) == 1


def test_cached_stores_no_error():
    owner, calls = _Owner(), []

    def failing(o):
        calls.append(o)
        raise AssertionError("check failed")

    for attempt in (1, 2):
        with pytest.raises(AssertionError, match="check failed"):
            cached(owner, "k", failing)
        assert len(calls) == attempt
        assert owner.derived == {}
    assert cached(owner, "k", lambda o: 7) == 7
