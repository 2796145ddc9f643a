"""The names other code looks up on geokit's modules exist.

perfbench's tracer wraps its table of functions with ``getattr`` and no
default, so a library function deleted from under that table makes
``perfbench/run.py --trace 1`` crash; this test reads the tables (it edits
nothing) and fails first.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("linalg", "sysmodel", "pencils", "geometry", "assignment", "verify")


@pytest.fixture(scope="module")
def perfbench_tables():
    sys.path.insert(0, str(ROOT))
    try:
        harness = importlib.import_module("perfbench.harness")
        tracer = importlib.import_module("perfbench.tracer")
    finally:
        sys.path.remove(str(ROOT))
    return {"tracer.WRAPPED": tracer.WRAPPED, "harness.LAYER_FUNCTIONS": harness.LAYER_FUNCTIONS}


@pytest.mark.parametrize("table", ["tracer.WRAPPED", "harness.LAYER_FUNCTIONS"])
def test_perfbench_names_resolve(perfbench_tables, table):
    missing = [f"{module}.{fn}" for module, fns in perfbench_tables[table].items()
               for fn in fns if not hasattr(importlib.import_module(f"geokit.{module}"), fn)]
    assert not missing, f"{table} names functions geokit no longer has: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"geokit.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing, f"geokit.{name}.__all__ names {missing}"
