"""Every name the benchmark reaches in bergtoep exists.

The tracer fetches each (module, function) it wraps with ``getattr``, and
the workloads import names from the package, so a renamed or deleted
function would break a benchmark run.  The benchmark files are only read
(parsed with ``ast``), never imported.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _wrapped_names() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no WRAPPED list")


def test_every_traced_name_resolves():
    wrapped = _wrapped_names()
    assert wrapped
    missing = [
        f"{module}.{name}"
        for module, name in wrapped
        if not callable(getattr(importlib.import_module(f"bergtoep.{module}"), name, None))
    ]
    assert missing == []


def _package_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of every ``from bergtoep[.x] import name`` in
    perfbench/*.py, at any depth of the file."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "bergtoep" or node.module.startswith("bergtoep."):
                    found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


def test_every_benchmark_import_resolves():
    imports = _package_imports()
    assert imports
    missing = [
        f"{file}: from {module} import {name}"
        for file, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_arguments_the_tracer_hooks_read_exist():
    # the tracer's hooks read these arguments by position, or by keyword when
    # passed so: the sampler whose points they count, the dimension they
    # size bytes by, the matrix whose cube they sum.  A renamed or moved
    # parameter would make a hook count the wrong argument or fail
    for module, name, index, parameter in [
        ("berezin", "invariant_integral", 0, "sampler"),
        ("operators", "assemble", 1, "dim"),
        ("spectral", "jacobi_svd", 0, "matrix"),
    ]:
        func = getattr(importlib.import_module(f"bergtoep.{module}"), name)
        assert list(inspect.signature(func).parameters)[index] == parameter, f"{module}.{name}"
