"""The traced benchmark wraps qsalab functions by (module, attribute) name;
every name it lists must still exist, or a traced run crashes at install,
and each training row must run the forward it counts exactly once."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qsalab.data import generate_classical_dataset
from qsalab.trainer import TrainConfig, train

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("span, module_name, attr", load_tracing().TARGETS)
def test_traced_target_exists(span, module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("kind, span", [("qsa", "engine.batched_expectations"),
                                        ("lcsa", "classical.lcsa_forward_batch")])
def test_each_training_row_runs_the_traced_forward_once(kind, span):
    dataset = generate_classical_dataset(8, 4, 12, seed=3, order=2)
    tracer = load_tracing().Tracer()
    tracer.install()
    tracer.active = True
    try:
        _, report = train(TrainConfig(model_kind=kind, epochs=2, seed=7), dataset)
    finally:
        tracer.uninstall()
    assert len(report.rows) == 3
    assert [name for name, *_ in tracer.spans].count(span) == 3
    if kind == "qsa":
        assert tracer.tallies["engine.batched_expectations.rows"] == 3 * len(dataset) * dataset.num_steps
