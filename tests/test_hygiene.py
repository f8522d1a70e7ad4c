"""Hygiene of the package sources, checked on their syntax trees: imports,
``__all__`` entries, a caller for every public definition, method and
property, a reader for every module-level constant, and a reader for every
config key of the command line."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from cavity_rpm.cli import DEFAULTS

SRC = Path(__file__).resolve().parents[1] / "src" / "cavity_rpm"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree):
    """Names bound by the module's imports, wherever they stand."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _defined(tree):
    """Names bound at the top level of the module."""
    names = _imported(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(_imported(tree) - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_all_entry_is_defined(path):
    tree = _tree(path)
    assert sorted(set(_all(tree)) - _defined(tree)) == []


def _references():
    """Names the package reads, as AST names or attributes, in any module."""
    names = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _outside_text():
    """README and the benchmark harness, which may name an entry point."""
    root = SRC.parents[1]
    paths = [root / "README.md", *sorted((root / "perfbench").glob("*.py"))]
    return "\n".join(p.read_text(encoding="utf-8") for p in paths)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_definitions(tree):
    """``(qualified name, name, pattern)`` of each public function and class
    at the top level of a module and of each public method and property of
    its classes.  The pattern finds a caller in README or the benchmark: the
    bare name for a top-level definition, an attribute ``.name`` for a
    method, since prose uses words such as "dense" freely."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, rf"\b{node.name}\b"
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _FUNCTIONS) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name, rf"\.{member.name}\b"


# each public definition named like an attribute of np.ndarray, whose reads a
# name match cannot tell from the arrays', and the function that reads it
ARRAY_NAMED = {"entanglement.JointHistogram.size": "cli._noon_single"}


def _reads_attribute(caller, name):
    """Whether the function ``module.function`` reads an attribute ``name``."""
    module, function = caller.split(".")
    for node in _tree(SRC / f"{module}.py").body:
        if isinstance(node, _FUNCTIONS) and node.name == function:
            return any(isinstance(n, ast.Attribute) and n.attr == name for n in ast.walk(node))
    return False


def test_every_public_definition_has_a_caller():
    """A public function, class, method or property that only its own tests
    call is dead code.  A name that NumPy arrays share finds a caller in every
    array's read of it, so each such definition must be listed in
    ``ARRAY_NAMED`` with a caller that reads it."""
    references = _references()
    text = _outside_text()
    definitions = [
        (f"{path.stem}.{qualified}", name, pattern) for path in MODULES
        for qualified, name, pattern in _public_definitions(_tree(path))
    ]
    unused = [
        qualified for qualified, name, pattern in definitions
        if name not in references and not re.search(pattern, text)
    ]
    assert unused == []
    array_named = sorted(q for q, name, _ in definitions if hasattr(np.ndarray, name))
    assert array_named == sorted(ARRAY_NAMED)
    assert [q for q, caller in ARRAY_NAMED.items()
            if not _reads_attribute(caller, q.rsplit(".", 1)[1])] == []


def _constant_reads(path):
    """``module.name`` of each name that the module at ``path`` reads: its own
    names, names it imports from a sibling module, and attributes of a
    sibling module (``effective.MERGE_RTOL``)."""
    reads = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(f"{path.stem}.{node.id}")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            reads.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            reads.update(f"{node.module}.{a.name}" for a in node.names)
    return reads


def test_every_module_constant_is_read():
    """A module-level constant (an upper-case name, private or not) that the
    package never reads is a setting that does nothing."""
    constants = {
        f"{path.stem}.{name}" for path in MODULES
        for name in _defined(_tree(path)) - _imported(_tree(path))
        if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name)
    }
    reads = set().union(*map(_constant_reads, MODULES))
    assert constants
    assert sorted(constants - reads) == []


def test_every_config_key_is_read():
    """A config key that the command line never reads as ``cfg["<key>"]`` is
    an option that does nothing."""
    read = {
        node.slice.value for node in ast.walk(_tree(SRC / "cli.py"))
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
        and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)
    }
    assert sorted(set(DEFAULTS) - read) == []


# modules of threads, foreign calls and loading a module from its file, which
# only effective's parity chains and their LAPACK binding use
CONCURRENCY = ("threading", "concurrent", "ctypes", "multiprocessing", "_thread", "importlib")
# the names of ``os`` that read the environment
ENVIRONMENT = ("environ", "environb", "getenv")


def _imported_modules(tree):
    """Dotted names of the modules that the module's imports load."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_threads_and_foreign_calls_stay_in_effective():
    """Only ``effective`` starts a thread, calls LAPACK through ctypes or
    loads a module from its file, so the concurrency, and the one loader
    that bypasses the import system's package imports, stay in one place."""
    found = sorted(
        f"{path.stem}: {name}" for path in MODULES if path.name != "effective.py"
        for name in _imported_modules(_tree(path))
        if name.split(".")[0] in CONCURRENCY
    )
    assert found == []


def test_no_module_reads_the_environment():
    """No environment variable sets how the package runs: a thread count or
    any other knob belongs in the command line's options, if anywhere."""
    found = sorted(
        f"{path.stem}:{node.lineno}" for path in MODULES for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "os" and node.attr in ENVIRONMENT)
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(a.name in ENVIRONMENT for a in node.names))
    )
    assert found == []


def test_only_core_merges_equal_levels():
    """Line spectra merge levels equal in floating point by one rule, core's
    ``_merge_equal_levels``: no other module calls ``np.unique`` with
    ``return_inverse`` or ``return_index`` to merge them its own way."""
    found = sorted(
        f"{path.stem}:{node.lineno}" for path in MODULES if path.name != "core.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and any(k.arg in ("return_inverse", "return_index") for k in node.keywords)
    )
    assert found == []


def test_scalars_and_arrays_take_one_path():
    """No module compares ``.ndim`` with 0 to give a scalar input a return of
    its own: ``[()]`` makes a 0-d result a NumPy scalar on the arrays' path."""
    found = sorted(
        f"{path.stem}:{node.lineno}" for path in MODULES for node in ast.walk(_tree(path))
        if isinstance(node, ast.Compare)
        and any(isinstance(x, ast.Attribute) and x.attr == "ndim"
                for x in (node.left, *node.comparators))
        and any(isinstance(x, ast.Constant) and x.value == 0
                for x in (node.left, *node.comparators))
    )
    assert found == []


def test_one_function_writes_the_csv_files():
    """Every CSV leaves through ``cli._emit``, which also writes its sidecar
    and reports it: ``_write_csv`` has that one caller in the package."""
    callers = sorted(
        f"{path.stem}.{top.name}" if isinstance(top, _FUNCTIONS) else f"{path.stem}:{node.lineno}"
        for path in MODULES for top in _tree(path).body for node in ast.walk(top)
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "_write_csv"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "_write_csv")
    )
    assert callers == ["cli._emit"]
