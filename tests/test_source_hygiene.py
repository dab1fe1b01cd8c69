"""Static checks of the package source: no dead private code, no unused
imports, no stale private names in the docs, one home for LAPACK.

A private module-level name (one leading underscore) that only tests
reference is dead API; the tests should exercise what the program runs.
A backticked private name in a docstring, a comment or README.md must
name something the package still defines. Every eigensolver call goes
through `linalg._lapack`, the one place LAPACK's failure becomes
NoConvergence, so no other module calls numpy's eigensolvers itself.
The CLI checks its search flags and `-o` in `cli.main` alone, before any
command handler reads a file. A verdict that an operator is not a
witness becomes COutOfInterval in `witness._require_witness` alone.
The CLI imports no private name from extend or qstate: an extension's
base-size problems come with the extension itself.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "witness_forge"
MODULES = sorted(SRC.glob("*.py"))
README = ROOT / "README.md"
# `_name` or `module._name`, one leading underscore
_BACKTICKED_PRIVATE = re.compile(r"`(?:([A-Za-z]\w*)\.)?(_[A-Za-z0-9]\w*)`")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name read in `tree`, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and constants named with one
    leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _exported(tree: ast.Module) -> set[str]:
    """The strings listed in a module-level `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return set()


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "witness.py", "oracle.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_private_definitions_are_used_by_the_package(path):
    read = set().union(*(_loaded_names(_tree(p)) for p in MODULES))
    unused = [n for n in _private_definitions(_tree(path)) if n not in read]
    assert unused == [], f"{path.name}: private names no package module reads"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = _loaded_names(tree) | _exported(tree)
    unused = [n for n in imported if n not in used]
    assert unused == [], f"{path.name}: unused imports"


def _defined_names(tree: ast.Module) -> set[str]:
    """Every function, class, and module- or class-level assigned name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, (ast.Module, ast.ClassDef)):
            for stmt in node.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _doc_text(path: Path) -> str:
    """The docstrings and comments of one module."""
    source = path.read_text(encoding="utf-8")
    docs = [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    comments = [
        tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    ]
    return "\n".join(docs + comments)


@pytest.mark.parametrize("path", [*MODULES, README], ids=[p.name for p in [*MODULES, README]])
def test_backticked_private_names_exist(path):
    defined = {p.stem: _defined_names(_tree(p)) for p in MODULES}
    anywhere = set().union(*defined.values())
    text = path.read_text(encoding="utf-8") if path.suffix == ".md" else _doc_text(path)
    stale = sorted(
        m.group(0)
        for m in _BACKTICKED_PRIVATE.finditer(text)
        if m.group(2) not in (defined.get(m.group(1), set()) if m.group(1) else anywhere)
    )
    assert stale == [], f"{path.name}: backticked private names the package does not define"


_EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}
_OUTSIDE_LINALG = [p for p in MODULES if p.name != "linalg.py"]


@pytest.mark.parametrize("path", _OUTSIDE_LINALG, ids=[p.name for p in _OUTSIDE_LINALG])
def test_only_linalg_calls_the_eigensolvers(path):
    # passing `np.linalg.eigh` to `_lapack` is an attribute read, not a call
    calls = [
        f"line {node.lineno}: {node.func.attr}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _EIGENSOLVERS
    ]
    assert calls == [], f"{path.name}: eigensolver calls outside linalg._lapack"


_FRONT_DOOR = {"_resolve_seed", "_search_params", "require_writable"}


def test_only_cli_main_checks_the_search_flags_and_the_output():
    handlers = [
        fn for fn in _tree(SRC / "cli.py").body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")
    ]
    calls = [
        f"{fn.name}: {ast.unparse(node.func)}"
        for fn in handlers
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in _FRONT_DOOR
    ]
    assert handlers and calls == [], "cli._cmd_* calls that belong to cli.main's checks"


def test_only_witness_raises_the_non_witness_error():
    raises = [
        f"{path.name}: line {node.lineno}"
        for path in MODULES
        if path.name != "witness.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Raise) and node.exc and "COutOfInterval" in ast.unparse(node.exc)
    ]
    assert raises == [], "COutOfInterval raised outside witness._require_witness"


def test_cli_imports_no_private_name_from_extend_or_qstate():
    private = [
        f"{node.module}.{a.name}"
        for node in _tree(SRC / "cli.py").body
        if isinstance(node, ast.ImportFrom) and node.module in ("extend", "qstate")
        for a in node.names
        if a.name.startswith("_")
    ]
    assert private == [], "cli.py imports private names from extend or qstate"
