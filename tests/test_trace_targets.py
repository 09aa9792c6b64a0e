"""The traced benchmark wraps qsalab functions by (module, attribute) name;
every name it lists must still exist, or a traced run crashes at install."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("span, module_name, attr", traced_targets())
def test_traced_target_exists(span, module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"
