"""Every (module, function) the benchmark tracer wraps exists in bergtoep.

The tracer fetches each name with ``getattr``, so a renamed or deleted
function breaks every traced benchmark run.  The tracer file is only read
(parsed with ``ast``), never imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
