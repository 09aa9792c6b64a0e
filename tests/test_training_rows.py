"""Training rows: one model forward per row, loss.csv bytes unchanged from an
earlier build, and settings that only a circuit kind can honour."""

import sys
from pathlib import Path

import numpy as np
import pytest

from qsalab import ansatz, data
from qsalab.data import build_ising, generate_classical_dataset, generate_quantum_dataset
from qsalab.errors import ConfigurationError, NumericFailureError
from qsalab.trainer import MODELS, TrainConfig, _Adapter, initialize_params, train

FIXTURES = Path(__file__).parent / "fixtures"
KINDS = ("qsa", "scsa", "lcsa")


def classical_set():
    return generate_classical_dataset(8, 4, 12, seed=3, order=2)


def quantum_set():
    return generate_quantum_dataset(build_ising(3, seed=1), 4, 6, seed=4)


@pytest.mark.parametrize(
    "kind, data_kind",
    [("qsa", "classical"), ("scsa", "classical"), ("lcsa", "classical"), ("qsa", "quantum"), ("lcsa", "quantum")],
)
def test_loss_csv_matches_fixture_bytes(kind, data_kind):
    """Each fixture was written by an earlier build from
    ``train(TrainConfig(model_kind=kind, epochs=3, seed=7), dataset)``."""
    dataset = classical_set() if data_kind == "classical" else quantum_set()
    _, report = train(TrainConfig(model_kind=kind, epochs=3, seed=7), dataset)
    assert report.to_csv_text() == (FIXTURES / f"loss_{kind}_{data_kind}.csv").read_text()


class _CountingEmbeddings:
    """Counts batched embeddings, one per model forward, wherever a qsalab
    module holds ``embed_batch``."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = data.embed_batch

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("qsalab") and getattr(module, "embed_batch", None) is original:
                monkeypatch.setattr(module, "embed_batch", counted)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("data_kind", ["classical", "quantum"])
def test_default_path_runs_one_forward_per_row(monkeypatch, kind, data_kind):
    dataset = classical_set() if data_kind == "classical" else quantum_set()
    counter = _CountingEmbeddings(monkeypatch)
    _, report = train(TrainConfig(model_kind=kind, epochs=2, seed=7), dataset)
    assert len(report.rows) == 3
    assert counter.calls == 3


@pytest.mark.parametrize(
    "overrides",
    [{"shots": 64}, {"expectation_route": "circuit"}, {"gradient_mode": "finite-difference"}],
)
def test_perturbation_paths_reuse_the_row_forward(monkeypatch, overrides):
    dataset = generate_classical_dataset(8, 4, 2, seed=5, order=2)
    config = TrainConfig(model_kind="qsa", epochs=1, seed=5, num_layers=1, embedding_trainable=False, **overrides)
    calls = []
    original = _Adapter._outputs
    monkeypatch.setattr(_Adapter, "_outputs", lambda adapter, c, e: calls.append(1) or original(adapter, c, e))
    trained, report = train(config, dataset)
    angles = sum(arr.size for _, arr in MODELS["qsa"].arrays(trained))
    # per row: the row's own forward, then two perturbed forwards per angle
    assert len(calls) == len(report.rows) * (1 + 2 * angles)


def test_non_finite_loss_stops_before_gradient_work(monkeypatch):
    def no_gradients(*args, **kwargs):
        raise AssertionError("gradient work ran for a non-finite loss")

    monkeypatch.setattr(_Adapter, "_exact_gradients", no_gradients)
    monkeypatch.setattr(MODELS["lcsa"], "losses", lambda outputs, num_steps: (np.full(len(outputs), np.nan), 0))
    with pytest.raises(NumericFailureError) as excinfo:
        train(TrainConfig(model_kind="lcsa", epochs=2, seed=7), classical_set())
    assert excinfo.value.diagnostic["epoch"] == 0


@pytest.mark.parametrize("kind", ["scsa", "lcsa"])
@pytest.mark.parametrize("setting", [{"shots": 64}, {"expectation_route": "circuit"}])
def test_train_config_rejects_circuit_settings_for_baselines(kind, setting):
    with pytest.raises(ConfigurationError):
        TrainConfig(model_kind=kind, **setting)
    TrainConfig(model_kind="qsa", **setting)


@pytest.mark.parametrize("data_kind", ["classical", "quantum"])
def test_default_qsa_row_builds_each_ansatz_once(monkeypatch, data_kind):
    """One row's forward and backward build V's and W's rotation layers
    once each: one batched pass of all num_layers + 1 layers per ansatz."""
    dataset = classical_set() if data_kind == "classical" else quantum_set()
    config = TrainConfig(model_kind="qsa", seed=7)
    adapter = _Adapter(initialize_params(config, dataset), dataset, config)
    circuit_vec, embed_vec = adapter.circuit_vector(adapter.template), adapter.embed_vector(adapter.template)
    calls = []
    original = ansatz._rotation_layers
    monkeypatch.setattr(ansatz, "_rotation_layers", lambda *args: calls.append(args[0].shape[0]) or original(*args))
    adapter.gradients(circuit_vec, embed_vec)
    assert calls == [config.num_layers + 1] * 2
