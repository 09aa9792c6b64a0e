"""Exact reverse-mode gradients against their oracles: the two-point shift
rule for circuit angles and central differences for every array."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsalab import classical
from qsalab.ansatz import parameter_shift_gradient
from qsalab.data import build_ising, generate_classical_dataset, generate_quantum_dataset
from qsalab.objectives import PROBABILITY_FLOOR
from qsalab.trainer import MODELS, TrainConfig, _Adapter, initialize_params

KINDS = ("qsa", "scsa", "lcsa")
SEEDS = st.integers(min_value=0, max_value=2 ** 16)
# Central differences err by h^2/6 times the third derivative: at the default
# step 1e-4 that reaches 5e-5 of the gradient when an expectation is near
# 1e-5 (-log is steep there).  At 1e-6 truncation is negligible and
# round-off stays near 1e-9.
FD_STEP = 1e-6


def dataset(data_kind, seed, count=4):
    if data_kind == "classical":
        return generate_classical_dataset(8, 4, count, seed=seed, order=2)
    return generate_quantum_dataset(build_ising(3, seed=seed), 4, count, seed=seed)


def adapter_for(kind, data, seed, **overrides):
    config = TrainConfig(model_kind=kind, epochs=1, seed=seed, **overrides)
    params = initialize_params(config, data)
    adapter = _Adapter(params, data, config)
    return adapter, adapter.circuit_vector(params), adapter.embed_vector(params)


def max_relative(value, reference):
    return np.max(np.abs(value - reference)) / np.max(np.abs(reference))


@pytest.mark.parametrize("data_kind", ["classical", "quantum"])
@settings(max_examples=8, deadline=None)
@given(seed=SEEDS)
def test_circuit_angles_match_shift_rule(data_kind, seed):
    data = dataset(data_kind, seed)
    adapter, cvec, evec = adapter_for("qsa", data, seed)
    exact, _ = adapter.gradients(cvec, evec)
    outputs = lambda v: adapter._evaluate(v, evec)[1]
    base = outputs(cvec)
    slopes = np.where(base > PROBABILITY_FLOOR, -1.0 / base, 0.0)
    shift = np.array([
        np.mean(slopes * parameter_shift_gradient(outputs, cvec, i))
        for i in range(cvec.size)
    ])
    assert max_relative(exact, shift) <= 1e-10


def relu_margin(adapter, cvec, evec):
    """Distance of the nearest S-CSA feed-forward pre-activation from the
    split-ReLU kink, where central differences stop being an oracle."""
    seen = []
    original = classical._split_relu
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classical, "_split_relu", lambda x: seen.append(x) or original(x))
        adapter.mean_loss(cvec, evec)
    parts = [seen[0].real] + ([seen[0].imag] if np.iscomplexobj(seen[0]) else [])
    return min(np.min(np.abs(part)) for part in parts)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("data_kind", ["classical", "quantum"])
@settings(max_examples=4, deadline=None)
@given(seed=SEEDS)
def test_every_array_matches_finite_differences(kind, data_kind, seed):
    data = dataset(data_kind, seed)
    adapter, cvec, evec = adapter_for(kind, data, seed)
    if kind == "scsa":
        assume(relu_margin(adapter, cvec, evec) > 100 * FD_STEP)
    oracle, _, _ = adapter_for(kind, data, seed, gradient_mode="finite-difference", fd_step=FD_STEP)
    exact_circuit, exact_embed = adapter.gradients(cvec, evec)
    fd_circuit, fd_embed = oracle.gradients(cvec, evec)
    # one array at a time, so a small array cannot hide behind a large one
    pos = 0
    for name, arr in MODELS[kind].arrays(adapter.template):
        size = arr.size * (2 if np.iscomplexobj(arr) else 1)
        part = slice(pos, pos + size)
        pos += size
        if np.max(np.abs(fd_circuit[part])) > 0:
            assert max_relative(exact_circuit[part], fd_circuit[part]) <= 1e-5, name
    assert pos == cvec.size
    assert max_relative(exact_embed, fd_embed) <= 1e-5


class _CountingEvaluations:
    """Counts model evaluations at the adapter's one evaluation entry."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = _Adapter._evaluate

        def counted(adapter, circuit_vec, embed_vec):
            self.calls += 1
            return original(adapter, circuit_vec, embed_vec)

        monkeypatch.setattr(_Adapter, "_evaluate", counted)

    def per_gradient(self, adapter, cvec, evec):
        before = self.calls
        adapter.gradients(cvec, evec)
        return self.calls - before


@pytest.mark.parametrize("kind", KINDS)
def test_default_path_cost_does_not_grow_with_parameter_count(monkeypatch, kind):
    counter = _CountingEvaluations(monkeypatch)
    data = dataset("classical", 3)
    counts = {}
    for layers, embed_dim in ((1, 2), (5, 4)):
        adapter, cvec, evec = adapter_for(kind, data, 3, num_layers=layers, embed_dim=embed_dim)
        counts[cvec.size] = counter.per_gradient(adapter, cvec, evec)
    assert len(counts) == 2
    assert len(set(counts.values())) == 1, counts


@pytest.mark.parametrize("overrides", [{"shots": 64}, {"expectation_route": "circuit"}])
def test_shots_and_circuit_route_take_the_perturbation_path(monkeypatch, overrides):
    counter = _CountingEvaluations(monkeypatch)
    data = dataset("classical", 5, count=2)
    adapter, cvec, evec = adapter_for(
        "qsa", data, 5, num_layers=1, embedding_trainable=False, **overrides
    )
    grad_circuit, grad_embed = adapter.gradients(cvec, evec)
    assert counter.per_gradient(adapter, cvec, evec) == 1 + 2 * cvec.size
    assert not np.any(grad_embed)
    if "expectation_route" in overrides:
        # the dense circuit is exact, so its shift-rule gradient is the closed form's
        analytic, _, _ = adapter_for("qsa", data, 5, num_layers=1, embedding_trainable=False)
        exact, _ = analytic.gradients(cvec, evec)
        assert max_relative(grad_circuit, exact) <= 1e-10


def test_clamped_probabilities_have_zero_slope():
    exps = np.array([PROBABILITY_FLOOR / 2, 0.25])
    assert list(MODELS["qsa"].loss(exps)[2]) == [0.0, -4.0]
    ratios = np.array([[PROBABILITY_FLOOR / 2, 0.25, 1.0 + 1e-9, 0.25]])
    slopes = MODELS["lcsa"].loss(ratios)[2]
    assert slopes[0, 0] == 0.0 and slopes[0, 2] == 0.0
    assert np.all(slopes[0, [1, 3]] < 0.0)
