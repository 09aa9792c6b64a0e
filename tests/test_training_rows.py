"""Training rows: one model forward per row, and settings that only a circuit
kind can honour.  ``tests/pinned.py`` pins the loss.csv bytes."""

import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from qsalab import ansatz, data, engine, trainer
from qsalab.data import generate_classical_dataset
from qsalab.errors import ConfigurationError, NumericFailureError
from qsalab.trainer import MODELS, TrainConfig, _Adapter, initialize_params, train

from pinned import classical_set, quantum_set

KINDS = ("qsa", "scsa", "lcsa")


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


def _three_training_rows(params, dataset):
    _, report = train(TrainConfig(model_kind=params.model_kind, epochs=2, seed=7), dataset)
    assert len(report.rows) == 3


def _circuit_loss(params, dataset):
    adapter = _Adapter(params, dataset, TrainConfig(model_kind="qsa", expectation_route="circuit"))
    return adapter.mean_loss(adapter.circuit_vector(params), adapter.embed_vector(params))


# (entry point, embeds it runs) on the untrained params of TrainConfig(model_kind=kind, seed=7)
ENTRY_POINTS = {
    "train": (_three_training_rows, 3),  # one per row
    "evaluate": (trainer.evaluate, 1),
    "predict_topk": (trainer.predict_topk, 1),
    "circuit-loss": (_circuit_loss, 1),
}


@pytest.mark.parametrize("kind, entry", [(kind, entry) for kind in KINDS for entry in ENTRY_POINTS
                                         if entry != "circuit-loss" or MODELS[kind].circuit])
@pytest.mark.parametrize("data_kind", ["classical", "quantum"])
def test_each_model_evaluation_embeds_once(monkeypatch, kind, entry, data_kind):
    dataset = classical_set() if data_kind == "classical" else quantum_set()
    params = initialize_params(TrainConfig(model_kind=kind, seed=7), dataset)
    run, embeds = ENTRY_POINTS[entry]
    counter = _CountingEmbeddings(monkeypatch)
    run(params, dataset)
    assert counter.calls == embeds


class _CountingPreparation:
    """Counts calls of the qsa preparation kernels under the names that
    engine and trainer import, and in ansatz, where ``build_ansatz_unitary``
    calls ``ansatz_vjp`` and ``phase_layer_vjp`` calls ``phase_layer_diagonal``
    by the module's own names."""

    NAMES = ("ansatz_vjp", "phase_layer_diagonal", "build_ansatz_unitary")

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(self.NAMES, 0)
        targets = [(module, name) for module in (engine, trainer) for name in self.NAMES]
        for module, name in targets + [(ansatz, "build_ansatz_unitary"), (ansatz, "phase_layer_diagonal")]:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, self._counted(name, getattr(module, name)))

    def _counted(self, name, original):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)

        return counted


def _one_training_row(params, dataset):
    adapter = _Adapter(params, dataset, TrainConfig(model_kind="qsa", seed=7))
    adapter.gradients(adapter.circuit_vector(params), adapter.embed_vector(params))


def _qsa_instance():
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
    return engine.QsaInstance.from_vectors(vectors[:5], vectors[5:], ansatz.AnsatzParams.random(2, 2, 1),
                                           ansatz.AnsatzParams.random(2, 2, 2), ansatz.PhaseLayerParams.random(2, 3))


# every qsa entry point, as (instance, params, dataset) -> None on one instance
# or on the untrained params of TrainConfig(model_kind="qsa", seed=7)
QSA_ENTRY_POINTS = {
    "analytic_expectation": lambda instance, params, dataset: engine.analytic_expectation(instance),
    "branch_overlaps": lambda instance, params, dataset: engine.branch_overlaps(instance),
    "step_probabilities": lambda instance, params, dataset: engine.step_probabilities(instance),
    "predict_token_state": lambda instance, params, dataset: engine.predict_token_state(instance, 3),
    "circuit_expectation": lambda instance, params, dataset: engine.circuit_expectation(instance),
    "circuit_state": lambda instance, params, dataset: engine.circuit_state(instance),
    "training-row": lambda instance, params, dataset: _one_training_row(params, dataset),
    "evaluate": lambda instance, params, dataset: trainer.evaluate(params, dataset),
    "predict_topk": lambda instance, params, dataset: trainer.predict_topk(params, dataset),
    "circuit-loss": lambda instance, params, dataset: _circuit_loss(params, dataset),
}


@pytest.mark.parametrize("entry", QSA_ENTRY_POINTS)
def test_each_qsa_entry_point_prepares_once(monkeypatch, entry):
    """V and W come from one stacked ansatz_vjp pass and the phases from at
    most one phase_layer_diagonal call, with no separate ansatz build, on
    every route: the one preparation of engine.qsa_arrays.  A training row's
    backward reuses the forward's phase diagonal."""
    dataset = classical_set()
    params = initialize_params(TrainConfig(model_kind="qsa", seed=7), dataset)
    instance = _qsa_instance()
    counter = _CountingPreparation(monkeypatch)
    QSA_ENTRY_POINTS[entry](instance, params, dataset)
    assert counter.calls["ansatz_vjp"] == 1
    assert counter.calls["phase_layer_diagonal"] <= 1
    assert counter.calls["build_ansatz_unitary"] == 0


# (setting, embedding trainable, model evaluations per training row), with P
# circuit angles and E real embedding entries: the row's own forward, then two
# perturbed forwards per entry of each vector whose rule perturbs it
ROW_EVALUATIONS = [
    ({}, True, "1"),
    ({}, False, "1"),
    ({"shots": 64}, False, "1 + 2P"),
    ({"shots": 64}, True, "1 + 2P + 2E"),
    ({"expectation_route": "circuit"}, False, "1 + 2P"),
    ({"expectation_route": "circuit"}, True, "1 + 2P + 2E"),
    ({"expectation_route": "circuit", "shots": 64}, True, "1 + 2P + 2E"),
    ({"gradient_mode": "finite-difference"}, False, "1 + 2P"),
    ({"gradient_mode": "finite-difference"}, True, "1 + 2P + 2E"),
    ({"gradient_mode": "finite-difference", "expectation_route": "circuit"}, False, "1 + 2P"),
    ({"gradient_mode": "finite-difference", "expectation_route": "circuit"}, True, "1 + 2P + 2E"),
    ({"gradient_mode": "finite-difference", "shots": 64}, True, "1 + 2P + 2E"),
]


@pytest.mark.parametrize(
    "overrides, trainable, evaluations",
    [pytest.param(*row, id=f"{'-'.join(f'{k}={v}' for k, v in row[0].items()) or 'exact'}-"
                           f"{'trained' if row[1] else 'frozen'}") for row in ROW_EVALUATIONS],
)
def test_perturbation_paths_reuse_the_row_forward(monkeypatch, overrides, trainable, evaluations):
    dataset = generate_classical_dataset(8, 4, 2, seed=5, order=2)
    config = TrainConfig(model_kind="qsa", epochs=1, seed=5, num_layers=1, embedding_trainable=trainable,
                         **overrides)
    calls = []
    original = _Adapter._evaluate
    monkeypatch.setattr(_Adapter, "_evaluate", lambda adapter, c, e: calls.append(1) or original(adapter, c, e))
    trained, report = train(config, dataset)
    angles = sum(arr.size for _, arr in MODELS["qsa"].arrays(trained))
    entries = trained.embedding.matrix.size
    per_row = {"1": 1, "1 + 2P": 1 + 2 * angles, "1 + 2P + 2E": 1 + 2 * angles + 2 * entries}[evaluations]
    assert len(calls) == len(report.rows) * per_row


@pytest.mark.parametrize(
    "kind, overrides",
    [("lcsa", {}), ("qsa", {"shots": 64}), ("qsa", {"gradient_mode": "finite-difference"})],
    ids=["lcsa-backward", "qsa-shots", "qsa-finite-difference"],
)
def test_non_finite_loss_stops_before_gradient_work(monkeypatch, kind, overrides):
    def no_gradients(*args, **kwargs):
        raise AssertionError("gradient work ran for a non-finite loss")

    monkeypatch.setattr(_Adapter, "_backward", no_gradients)
    monkeypatch.setattr(_Adapter, "_perturbed", no_gradients)
    monkeypatch.setattr(MODELS[kind], "loss",
                        lambda outputs: (np.full(len(outputs), np.nan), 0, np.zeros_like(outputs)))
    with pytest.raises(NumericFailureError) as excinfo:
        train(TrainConfig(model_kind=kind, epochs=2, seed=7, **overrides), classical_set())
    assert excinfo.value.diagnostic["epoch"] == 0


def test_adapter_is_freed_without_the_cycle_collector():
    # an adapter that referred to itself (say, through rules bound to it) would
    # keep every train call's input rows alive until the cycle collector ran
    dataset = classical_set()
    config = TrainConfig(model_kind="lcsa", seed=7)
    adapter = _Adapter(initialize_params(config, dataset), dataset, config)
    adapter.gradients(adapter.circuit_vector(adapter.template), adapter.embed_vector(adapter.template))
    ref = weakref.ref(adapter)
    gc.disable()
    try:
        del adapter
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["scsa", "lcsa"])
@pytest.mark.parametrize("setting", [{"shots": 64}, {"expectation_route": "circuit"}])
def test_train_config_rejects_circuit_settings_for_baselines(kind, setting):
    with pytest.raises(ConfigurationError):
        TrainConfig(model_kind=kind, **setting)
    TrainConfig(model_kind="qsa", **setting)


@pytest.mark.parametrize("data_kind", ["classical", "quantum"])
def test_default_qsa_row_builds_each_ansatz_once(monkeypatch, data_kind):
    """One row's forward and backward build V's and W's rotation layers
    once each: one batched pass over both ansatze's num_layers + 1 layers."""
    dataset = classical_set() if data_kind == "classical" else quantum_set()
    config = TrainConfig(model_kind="qsa", seed=7)
    adapter = _Adapter(initialize_params(config, dataset), dataset, config)
    circuit_vec, embed_vec = adapter.circuit_vector(adapter.template), adapter.embed_vector(adapter.template)
    calls = []
    original = ansatz._rotation_layers
    monkeypatch.setattr(ansatz, "_rotation_layers", lambda *args: calls.append(args[0].shape[:2]) or original(*args))
    adapter.gradients(circuit_vec, embed_vec)
    assert calls == [(2, config.num_layers + 1)]


def test_circuit_outputs_build_each_matrix_once_per_call(monkeypatch):
    """One circuit_outputs call over every sequence builds V's and W's
    rotation layers once each, in one batched pass over both, and no
    QsaInstance, and agrees with the analytic forward on the same rows."""
    dataset = classical_set()
    config = TrainConfig(model_kind="qsa", seed=7, expectation_route="circuit")
    params = initialize_params(config, dataset)
    layers, instances = [], []
    original = ansatz._rotation_layers
    monkeypatch.setattr(ansatz, "_rotation_layers", lambda *args: layers.append(args[0].shape[:2]) or original(*args))
    post_init = engine.QsaInstance.__post_init__
    monkeypatch.setattr(engine.QsaInstance, "__post_init__", lambda self: instances.append(1) or post_init(self))
    outputs = MODELS["qsa"].circuit_outputs(params, dataset.input_rows())
    assert layers == [(2, config.num_layers + 1)] and instances == []
    assert outputs.shape == (len(dataset),)
    analytic, _ = MODELS["qsa"].forward(params, dataset.input_rows())
    assert np.max(np.abs(outputs - analytic)) <= 1e-10


def test_twelve_qubit_circuit_outputs_stay_within_the_chunk_bound(monkeypatch):
    """A 12-qubit (d=16, T=16) circuit_outputs over 64 sequences: the dense
    pass peaks under DENSE_CHUNK_BYTES plus one state.  The 64 states alone
    fill the bound, and one pass over all of them holds several copies."""
    dataset = generate_classical_dataset(20, 16, 64, seed=1)
    params = initialize_params(TrainConfig(model_kind="qsa", embed_dim=16, seed=1), dataset)
    peaks = []
    original = trainer.dense_expectations

    def traced(*args):
        tracemalloc.start()
        try:
            return original(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(trainer, "dense_expectations", traced)
    outputs = MODELS["qsa"].circuit_outputs(params, dataset.input_rows())
    state_bytes = 16 * 2 ** 12
    assert outputs.shape == (64,)
    assert 64 * state_bytes >= engine.DENSE_CHUNK_BYTES
    assert peaks[0] <= engine.DENSE_CHUNK_BYTES + state_bytes
