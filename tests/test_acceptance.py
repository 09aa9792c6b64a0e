"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here, not configurable."""

import contextlib
import math
import time

import numpy as np

from qsalab.ansatz import AnsatzParams, PhaseLayerParams, build_ansatz_unitary
from qsalab.classical import LcsaParams, lcsa_step_probability
from qsalab.cli import main as cli_main
from qsalab.data import build_ising, generate_classical_dataset, generate_quantum_dataset
from qsalab.engine import (
    QsaInstance,
    analytic_expectation,
    circuit_expectation,
    predict_token_state,
    step_probabilities,
)
from qsalab.objectives import (
    StepProbabilities,
    cross_entropy_loss,
    renyi_alpha_loss,
    renyi_half_from_expectation,
)
from qsalab.trainer import TrainConfig, _Adapter, initialize_params, train


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def random_instance(rng, *, positive=False, identity_maps=False, layers=3):
    d = int(rng.choice([2, 4]))
    num_steps = int(rng.choice([2, 4]))
    n = d.bit_length() - 1
    t = num_steps.bit_length() - 1
    if positive:
        toks = rng.uniform(0.1, 1.0, size=(num_steps + 1, d))
        tgts = rng.uniform(0.1, 1.0, size=(num_steps, d))
    else:
        toks = rng.normal(size=(num_steps + 1, d)) + 1j * rng.normal(size=(num_steps + 1, d))
        tgts = rng.normal(size=(num_steps, d)) + 1j * rng.normal(size=(num_steps, d))
    if identity_maps:
        v = AnsatzParams.zeros(n, 0)
        w = AnsatzParams.zeros(n, 0)
        r = PhaseLayerParams.zeros(t)
    else:
        v = AnsatzParams.random(n, layers, rng.integers(1 << 30))
        w = AnsatzParams.random(n, layers, rng.integers(1 << 30))
        r = PhaseLayerParams.random(t, rng.integers(1 << 30))
    return QsaInstance.from_vectors(toks, tgts, v, w, r)


def test_criterion_1_dual_path_oracle_equivalence():
    with criterion(1, "circuit and analytic expectations agree to 1e-10 on 100+ random instances"):
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        worst = 0.0
        for _ in range(120):
            instance = random_instance(rng)
            diff = abs(circuit_expectation(instance) - analytic_expectation(instance))
            worst = max(worst, diff)
        elapsed = time.perf_counter() - started
        assert worst < 1e-10, f"worst dual-path difference {worst:.3e}"
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds one minute"


def test_criterion_2_observable_anchors_renyi_half_loss():
    with criterion(2, "-log(expectation) + log T equals the divergence-formula loss when phases align"):
        rng = np.random.default_rng(2025)
        for _ in range(25):
            instance = random_instance(rng, positive=True, identity_maps=True)
            num_steps = instance.num_steps
            probs = step_probabilities(instance)
            formula = renyi_alpha_loss(probs, 0.5)
            # the overlap observable of the prose derivation carries one
            # 1/sqrt(T N_j) per branch; the literal circuit adds a second
            # 1/sqrt(T), so the observable equals T times the circuit value
            observable = num_steps * circuit_expectation(instance)
            direct = renyi_half_from_expectation(observable, num_steps)
            assert abs(direct - formula) < 1e-10
            # equivalent statement: the circuit loss without its log T
            # constant is already the divergence-formula value
            assert abs(-math.log(circuit_expectation(instance)) - formula) < 1e-10


def test_criterion_3_renyi_half_lower_bounds_cross_entropy():
    with criterion(3, "alpha=1/2 loss lower-bounds the cross-entropy on 1000 random vectors"):
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            size = int(rng.integers(2, 9))
            probs = StepProbabilities(rng.uniform(1e-4, 1.0, size=size), np.ones(size))
            assert renyi_alpha_loss(probs, 0.5) <= cross_entropy_loss(probs) + 1e-12


def test_criterion_4_gradient_checks_all_parameter_classes():
    with criterion(4, "shift-rule and finite-difference gradients agree (rel err < 1e-4), 10 configurations"):
        dataset = generate_classical_dataset(8, 4, 6, seed=41, order=2)
        for trial in range(10):
            config = TrainConfig(model_kind="qsa", epochs=1, seed=500 + trial)
            params = initialize_params(config, dataset)
            adapter = _Adapter(params, dataset, config)
            cvec = adapter.circuit_vector(params)
            evec = adapter.embed_vector(params)
            grad_shift, grad_embed = adapter.gradients(cvec, evec)
            v_size = params.v_params.angles.size
            w_size = params.w_params.angles.size
            rng = np.random.default_rng(trial)
            # one index from each circuit-angle class: V, W, phase layer
            picks = [
                int(rng.integers(0, v_size)),
                v_size + int(rng.integers(0, w_size)),
                v_size + w_size + int(rng.integers(0, params.r_params.angles.size)),
            ]
            for i in picks:
                h = 1e-4
                plus, minus = cvec.copy(), cvec.copy()
                plus[i] += h
                minus[i] -= h
                fd = (adapter.mean_loss(plus, evec)[0] - adapter.mean_loss(minus, evec)[0]) / (2 * h)
                scale = max(abs(grad_shift[i]), abs(fd), 1e-8)
                assert abs(grad_shift[i] - fd) / scale < 1e-4
            # the embedding class has no shift rule; its central-difference
            # gradient must be step-size stable
            fine = _Adapter(params, dataset, TrainConfig(model_kind="qsa", seed=500 + trial, fd_step=1e-5))
            _, grad_fine = fine.gradients(cvec, evec)
            scale = np.maximum(np.abs(grad_embed), 1e-6)
            assert np.max(np.abs(grad_embed - grad_fine) / scale) < 1e-3


def test_criterion_5_quantum_dataset_physics():
    with criterion(5, "TFIM trajectories conserve norm (1e-12) and energy (1e-10), 300 records"):
        started = time.perf_counter()
        model = build_ising(4, seed=51)
        dataset = generate_quantum_dataset(model, 4, 300, seed=52)
        for rec in dataset.records:
            norms = np.linalg.norm(rec, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12
            energies = np.array([np.vdot(step, model.hamiltonian @ step).real for step in rec])
            assert np.max(np.abs(energies - energies[0])) < 1e-10
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds one minute"


def test_criterion_6_training_demonstrations():
    with criterion(6, "all three models learn the classical task; all train on the TFIM task"):
        started = time.perf_counter()
        classical = generate_classical_dataset(10, 4, 300, seed=7, order=2)
        reports = {}
        for kind in ("qsa", "scsa", "lcsa"):
            config = TrainConfig(model_kind=kind, epochs=100, seed=1)
            _, reports[kind] = train(config, classical)
        for kind, report in reports.items():
            drop = report.rows[0].train_loss_offset - report.rows[50].train_loss_offset
            assert drop >= 0.1, f"{kind} dropped only {drop:.3f} nats by epoch 50"
        final_qsa = reports["qsa"].rows[-1].perplexity
        final_lcsa = reports["lcsa"].rows[-1].perplexity
        assert final_qsa < 10.0, f"qsa perplexity {final_qsa:.2f} not below vocabulary size"
        assert final_qsa <= 2.0 * final_lcsa, (
            f"qsa perplexity {final_qsa:.2f} more than twice lcsa {final_lcsa:.2f}"
        )

        quantum = generate_quantum_dataset(build_ising(4, seed=51), 4, 300, seed=52)
        for kind in ("qsa", "scsa", "lcsa"):
            config = TrainConfig(model_kind=kind, epochs=30, seed=1)
            _, report = train(config, quantum)
            assert all(np.isfinite(row.train_loss_offset) for row in report.rows)
            if kind == "qsa":
                assert report.rows[-1].train_loss_offset < report.rows[0].train_loss_offset
        elapsed = time.perf_counter() - started
        assert elapsed < 1800.0, f"runtime {elapsed:.0f}s exceeds thirty minutes"


def test_criterion_7_complexity_slopes_and_crossovers():
    with criterion(7, "fitted log-log slopes match dominant exponents; crossover corners as claimed"):
        from qsalab.complexity import crossover_report, fit_scaling

        assert abs(fit_scaling("qsa-amplitude", "T", [256, 512, 1024, 2048, 4096], token_dim=4) - 1.0) < 0.15
        assert abs(fit_scaling("qsa-amplitude", "d", [64, 128, 256, 512, 1024], num_steps=4096) - 2.0) < 0.15
        assert abs(fit_scaling("csa", "T", [1024, 2048, 4096, 8192, 16384], token_dim=4) - 2.0) < 0.15
        assert abs(fit_scaling("qsa-basis", "T", [256, 512, 1024, 2048, 4096], token_dim=4) - 2.0) < 0.15
        long_sequences = crossover_report([4096], [4], 16, 5)[0]
        assert long_sequences["winner"] == "qsa-amplitude"
        huge_embeddings = crossover_report([2], [2048], 16, 5)[0]
        assert huge_embeddings["winner"] == "qsa-basis"


def test_criterion_8_classical_shadow_equivalence():
    with criterion(8, "L-CSA step probabilities match the circuit prediction read-out, 50 cases"):
        rng = np.random.default_rng(2028)
        for trial in range(50):
            toks = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
            tgts = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            v = AnsatzParams.random(2, 3, rng.integers(1 << 30))
            w = AnsatzParams.random(2, 3, rng.integers(1 << 30))
            instance = QsaInstance.from_vectors(toks, tgts, v, w, PhaseLayerParams.zeros(2))
            params = LcsaParams(build_ansatz_unitary(v).matrix, build_ansatz_unitary(w).matrix)
            encoded = instance.tokens
            encoded_targets = instance.shifted_targets
            for j in range(1, 5):
                classical = lcsa_step_probability(encoded, encoded_targets, params, j)
                state, _ = predict_token_state(instance, j)
                quantum = abs(np.vdot(encoded_targets[j - 1], state.amplitudes)) ** 2
                assert abs(classical - quantum) < 1e-10


def test_criterion_9_command_level_determinism(tmp_path, monkeypatch):
    with criterion(9, "generate/train/eval reruns are byte-identical, across thread caps"):
        data_args = [
            "generate", "--kind", "classical", "--vocab", "8", "--len", "5",
            "--count", "12", "--seed", "5",
        ]
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert cli_main(data_args + ["--out", str(path_a)]) == 0
        assert cli_main(data_args + ["--out", str(path_b)]) == 0
        assert path_a.read_bytes() == path_b.read_bytes()

        train_args = [
            "train", "--model", "qsa", "--data", str(path_a),
            "--epochs", "2", "--seed", "9",
        ]
        monkeypatch.setenv("QSALAB_THREADS", "1")
        assert cli_main(train_args + ["--out", str(tmp_path / "run_serial")]) == 0
        monkeypatch.setenv("QSALAB_THREADS", "4")
        assert cli_main(train_args + ["--out", str(tmp_path / "run_pooled")]) == 0
        monkeypatch.delenv("QSALAB_THREADS")
        for name in ("loss.csv", "checkpoint.json"):
            serial = (tmp_path / "run_serial" / name).read_bytes()
            pooled = (tmp_path / "run_pooled" / name).read_bytes()
            assert serial == pooled, f"{name} differs across thread caps"

        eval_args = [
            "eval", "--checkpoint", str(tmp_path / "run_serial" / "checkpoint.json"),
            "--data", str(path_a),
        ]
        out_a, out_b = tmp_path / "eval_a.json", tmp_path / "eval_b.json"
        assert cli_main(eval_args + ["--out", str(out_a)]) == 0
        assert cli_main(eval_args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
