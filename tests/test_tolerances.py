"""Every public function that takes ``tol`` rejects NaN, inf, zero and a
negative tolerance with ValueError, before it does any work.

The functions are found, not listed: each ``bergtoep`` module's ``__all__``
is searched with ``inspect.signature``.  ``_OTHER_ARGS`` holds valid values
for every other argument, and a newly found function that it misses fails
``test_every_public_tol_has_arguments``.
"""

from __future__ import annotations

import importlib
import inspect
import math
import pkgutil
import time

import pytest

import bergtoep
from bergtoep.measures import RadialPower, SymbolSpec

_SYMBOL = SymbolSpec(1, 1, RadialPower(s=4.0))

_OTHER_ARGS = {
    "bergtoep.spectral.trace_report": (_SYMBOL,),
}


def _public_tol_functions() -> dict:
    found = {}
    for info in pkgutil.iter_modules(bergtoep.__path__):
        module = importlib.import_module(f"bergtoep.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) and "tol" in inspect.signature(obj).parameters:
                found[f"{obj.__module__}.{obj.__name__}"] = obj
    return found


def test_every_public_tol_has_arguments():
    assert sorted(_public_tol_functions()) == sorted(_OTHER_ARGS)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(_OTHER_ARGS))
def test_public_tol_rejects_bad_values_at_once(name, tol):
    func = _public_tol_functions()[name]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        func(*_OTHER_ARGS[name], tol=tol)
    assert time.perf_counter() - start < 0.5
