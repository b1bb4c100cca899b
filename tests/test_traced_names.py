"""The benchmark's traced pass wraps functions of the package by name.

`perfbench/spans.py` looks up every name it traces when it installs its
wrappers, so a function renamed or deleted here fails the traced run.
This test reads the same tables and checks each name still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qvilab.core import Grid

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module, attr", sorted(
    {(module, attr) for module, attr, _, _ in spans.TRACED}))
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("attr", [attr for attr, _ in spans.TRACED_PROPERTIES])
def test_traced_grid_property_exists(attr):
    assert isinstance(vars(Grid).get(attr), property)
