import json
import math
from dataclasses import replace

import numpy as np
import pytest

from qsalab.data import build_ising, generate_classical_dataset, generate_quantum_dataset
from qsalab.errors import CompatibilityError, ConfigurationError, NumericFailureError
from qsalab.objectives import PROBABILITY_FLOOR
from qsalab.trainer import (
    MODELS,
    ModelParams,
    TrainConfig,
    _Adapter,
    checkpoint_document,
    evaluate,
    initialize_params,
    load_checkpoint,
    params_from_payload,
    params_to_payload,
    predict_topk,
    save_checkpoint,
    train,
)


def tiny_classical(count=12, seed=3, order=2):
    return generate_classical_dataset(8, 4, count, seed=seed, order=order)


def tiny_quantum(count=6, seed=4):
    return generate_quantum_dataset(build_ising(3, seed=1), 4, count, seed=seed)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(model_kind="other")
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=-1)
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(gradient_mode="adjoint")
        with pytest.raises(ConfigurationError):
            TrainConfig(shots=0)


class TestZeroEpochs:
    def test_returns_initial_params_and_empty_curve(self):
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=5)
        dataset = tiny_classical()
        params, report = train(config, dataset)
        assert report.rows == []
        reference = initialize_params(config, dataset)
        assert np.array_equal(params.lcsa.value_map, reference.lcsa.value_map)
        assert np.array_equal(params.embedding.matrix, reference.embedding.matrix)


class TestGradients:
    def test_shift_rule_matches_finite_differences_over_configs(self):
        # circuit-angle classes (V, W, phase layer) on the full training loss
        dataset = tiny_classical(count=6)
        for trial in range(10):
            config = TrainConfig(model_kind="qsa", epochs=1, seed=100 + trial)
            params = initialize_params(config, dataset)
            adapter = _Adapter(params, dataset, config)
            cvec = adapter.circuit_vector(params)
            evec = adapter.embed_vector(params)
            grad_shift, _ = adapter.gradients(cvec, evec)
            rng = np.random.default_rng(trial)
            picks = rng.choice(cvec.size, size=6, replace=False)
            for i in picks:
                h = 1e-4
                plus, minus = cvec.copy(), cvec.copy()
                plus[i] += h
                minus[i] -= h
                fd = (adapter.mean_loss(plus, evec)[0] - adapter.mean_loss(minus, evec)[0]) / (2 * h)
                scale = max(abs(grad_shift[i]), abs(fd), 1e-8)
                assert abs(grad_shift[i] - fd) / scale < 1e-4

    def test_embedding_gradient_consistent_across_steps(self):
        dataset = tiny_classical(count=6)
        config = TrainConfig(model_kind="qsa", epochs=1, seed=9)
        params = initialize_params(config, dataset)
        adapter = _Adapter(params, dataset, config)
        cvec = adapter.circuit_vector(params)
        evec = adapter.embed_vector(params)
        _, grad_embed = adapter.gradients(cvec, evec)
        fine = _Adapter(params, dataset, TrainConfig(model_kind="qsa", seed=9, fd_step=1e-5))
        _, grad_fine = fine.gradients(cvec, evec)
        scale = np.maximum(np.abs(grad_embed), 1e-6)
        assert np.max(np.abs(grad_embed - grad_fine) / scale) < 1e-3


class TestTrainingRuns:
    def test_deterministic_chain_lcsa_reaches_near_zero(self):
        dataset = generate_classical_dataset(10, 4, 60, seed=3, order=1)
        config = TrainConfig(model_kind="lcsa", epochs=200, seed=2)
        _, report = train(config, dataset)
        assert report.rows[-1].train_loss_offset < 0.05

    def test_rows_cover_epochs_and_match_evaluate(self):
        dataset = tiny_classical()
        config = TrainConfig(model_kind="qsa", epochs=3, seed=1)
        params, report = train(config, dataset)
        assert [row.epoch for row in report.rows] == [0, 1, 2, 3]
        evaluated = evaluate(params, dataset)
        assert abs(evaluated.per_set[0]["loss_offset"] - report.rows[-1].train_loss_offset) < 1e-10

    def test_identical_seed_bitwise_identical_report(self):
        dataset = tiny_classical()
        config = TrainConfig(model_kind="qsa", epochs=2, seed=11)
        _, report_a = train(config, dataset)
        _, report_b = train(config, dataset)
        assert report_a.to_csv_text() == report_b.to_csv_text()

    def test_thread_cap_does_not_change_bytes(self, monkeypatch):
        dataset = tiny_classical()
        config = TrainConfig(model_kind="qsa", epochs=2, seed=12)
        monkeypatch.setenv("QSALAB_THREADS", "1")
        _, serial = train(config, dataset)
        monkeypatch.setenv("QSALAB_THREADS", "4")
        _, pooled = train(config, dataset)
        assert serial.to_csv_text() == pooled.to_csv_text()

    def test_loss_constant_column_relation(self):
        dataset = tiny_classical()
        config = TrainConfig(model_kind="scsa", epochs=2, seed=13)
        _, report = train(config, dataset)
        for row in report.rows:
            assert abs(row.train_loss - row.train_loss_offset - math.log(4)) < 1e-12
            assert abs(row.perplexity - math.exp(row.train_loss_offset)) < 1e-12

    def test_quantum_task_all_models(self):
        dataset = tiny_quantum()
        for kind in ("qsa", "scsa", "lcsa"):
            config = TrainConfig(model_kind=kind, epochs=2, seed=14)
            params, report = train(config, dataset)
            assert np.isfinite(report.rows[-1].train_loss_offset)

    def test_shot_based_training_is_deterministic(self):
        dataset = tiny_classical(count=4)
        config = TrainConfig(model_kind="qsa", epochs=1, seed=15, shots=256)
        _, a = train(config, dataset)
        _, b = train(config, dataset)
        assert a.to_csv_text() == b.to_csv_text()

    def test_circuit_route_matches_analytic_route(self):
        dataset = tiny_classical(count=3)
        base = dict(model_kind="qsa", epochs=1, seed=16)
        _, analytic = train(TrainConfig(**base), dataset)
        _, circuit = train(TrainConfig(**base, expectation_route="circuit"), dataset)
        assert abs(analytic.rows[0].train_loss_offset - circuit.rows[0].train_loss_offset) < 1e-10


class TestEvaluate:
    def test_multiple_sets_aggregate(self):
        dataset = tiny_classical()
        config = TrainConfig(model_kind="lcsa", epochs=1, seed=17)
        params, _ = train(config, dataset)
        tests = [tiny_classical(seed=s) for s in (21, 22, 23)]
        report = evaluate(params, tests)
        perps = [entry["perplexity"] for entry in report.per_set]
        assert abs(report.test_perplexity_mean - np.mean(perps)) < 1e-12
        assert abs(report.test_perplexity_stdev - np.std(perps, ddof=1)) < 1e-12

    def test_empty_dataset_rejected(self):
        dataset = tiny_classical()
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=18)
        params, _ = train(config, dataset)
        with pytest.raises(ConfigurationError):
            evaluate(params, [])

    def test_kind_mismatch_rejected(self):
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=19)
        params, _ = train(config, tiny_classical())
        with pytest.raises(CompatibilityError):
            evaluate(params, tiny_quantum())

    def test_perfect_predictor_gives_unit_perplexity(self):
        # rank-one value map onto u with all targets embedding parallel to u
        dataset = tiny_classical()
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=20)
        params, _ = train(config, dataset)
        u = np.zeros(4)
        u[0] = 1.0
        collapsed_embedding = params.embedding.with_matrix(np.outer(u, np.ones(8)))
        collapsed = ModelParams(
            "lcsa",
            collapsed_embedding,
            lcsa=type(params.lcsa)(np.outer(u, u), np.eye(4)),
        )
        report = evaluate(collapsed, dataset)
        assert abs(report.per_set[0]["perplexity"] - 1.0) < 1e-6


class TestCheckpoints:
    def test_roundtrip_bit_exact(self):
        for kind in ("qsa", "scsa", "lcsa"):
            dataset = tiny_classical()
            config = TrainConfig(model_kind=kind, epochs=0, seed=21)
            params, _ = train(config, dataset)
            again = params_from_payload(json.loads(json.dumps(params_to_payload(params))))
            assert np.array_equal(again.embedding.matrix, params.embedding.matrix)
            if kind == "qsa":
                assert np.array_equal(again.v_params.angles, params.v_params.angles)
                assert np.array_equal(again.r_params.angles, params.r_params.angles)
            elif kind == "scsa":
                assert np.array_equal(again.scsa.anti_embed, params.scsa.anti_embed)
            else:
                assert np.array_equal(again.lcsa.value_map, params.lcsa.value_map)

    def test_complex_roundtrip_bit_exact(self):
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=22)
        params, _ = train(config, tiny_quantum())
        again = params_from_payload(json.loads(json.dumps(params_to_payload(params))))
        assert np.array_equal(again.embedding.matrix, params.embedding.matrix)
        assert np.array_equal(again.lcsa.value_map, params.lcsa.value_map)

    def test_file_roundtrip_and_kind_check(self, tmp_path):
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=23)
        params, _ = train(config, tiny_classical())
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, config, "classical", path)
        loaded, meta = load_checkpoint(path)
        assert meta["model_kind"] == "lcsa"
        assert meta["data_kind"] == "classical"
        assert np.array_equal(loaded.embedding.matrix, params.embedding.matrix)
        with pytest.raises(CompatibilityError):
            load_checkpoint(path, expected_kind="qsa")

    def test_truncated_file_is_typed_error(self, tmp_path):
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=24)
        params, _ = train(config, tiny_classical())
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, config, "classical", path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CompatibilityError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=25)
        params, _ = train(config, tiny_classical())
        doc = checkpoint_document(params, config, "classical")
        doc["version"] = 99
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CompatibilityError):
            load_checkpoint(path)


class TestPredictTopK:
    def test_orthonormal_fixture_predicts_attended_token(self):
        # orthonormal embedding columns, no positional shifts, identity maps:
        # the top-1 candidate at step j is the j-th word of the sequence
        dataset = generate_classical_dataset(8, 4, 4, seed=30, order=1)
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=26, gamma=0.0)
        params, _ = train(config, dataset)
        matrix = np.eye(4, 8)
        matrix[:, 4:] = np.eye(4)
        embedding = params.embedding.with_matrix(matrix)
        identity = ModelParams(
            "lcsa", embedding, lcsa=type(params.lcsa)(np.eye(4), np.eye(4))
        )
        words = predict_topk(identity, dataset, k=1).words
        assert words.shape == (len(dataset), dataset.num_steps, 1)
        for s, record in enumerate(dataset.records):
            # step j predicts position j + 2 from the word at position j + 1
            for j, top_word in enumerate(words[s, :, 0].tolist()):
                expected_direction = record[j] % 4
                assert top_word % 4 == expected_direction

    def test_scores_sorted_and_ties_break_low(self):
        dataset = tiny_classical()
        config = TrainConfig(model_kind="scsa", epochs=0, seed=27)
        params, _ = train(config, dataset)
        top = predict_topk(params, dataset, k=3)
        assert top.scores.shape == (len(dataset), dataset.num_steps, 3)
        for steps in top.scores.tolist():
            for scores in steps:
                assert scores == sorted(scores, reverse=True)

    def test_k_outside_the_vocabulary_is_rejected(self):
        dataset = tiny_classical(count=2)
        params, _ = train(TrainConfig(model_kind="lcsa", epochs=0, seed=27), dataset)
        for k in (0, 9):
            with pytest.raises(ConfigurationError, match=r"k must lie in 1\.\.8"):
                predict_topk(params, dataset, k=k)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("data", [tiny_classical, tiny_quantum], ids=["classical", "quantum"])
    @pytest.mark.parametrize("kind", ["qsa", "scsa", "lcsa"])
    def test_overflowing_forward_raises_numeric_failure(self, kind, data):
        # finite parameters whose forward overflows, run as `predict` runs it:
        # no score may come back NaN, and qsa's zeroed unit tokens must not
        # read as a vanishing output
        dataset = data()
        params, _ = train(TrainConfig(model_kind=kind, epochs=0, seed=28), dataset)
        emb = params.embedding
        for embedding in (replace(emb, gamma=1e308), emb.with_matrix(emb.matrix * 1e300)):
            with np.errstate(all="ignore"), pytest.raises(NumericFailureError, match="non-finite prediction scores"):
                predict_topk(replace(params, embedding=embedding), dataset)


@pytest.mark.parametrize("kind", ["qsa", "scsa", "lcsa"])
def test_losses_clamp_at_the_probability_floor(kind):
    # an output under the floor scores as the floor itself, is counted, and
    # passes no slope back
    model = MODELS[kind]
    probs = np.array([0.0, PROBABILITY_FLOOR / 2, PROBABILITY_FLOOR, 0.5])
    outputs = probs if model.circuit else np.stack([probs, np.full(4, 0.5)], axis=-1)
    losses, clamped = model.losses(outputs, 4)
    assert clamped == 2
    assert np.isfinite(losses).all()
    assert losses[0] == losses[1] == losses[2] > losses[3]
    slopes = model.loss_slopes(outputs, 4)
    assert np.all(slopes[outputs < PROBABILITY_FLOOR] == 0.0)
    assert np.all(slopes[outputs == 0.5] != 0.0)


class TestFiniteDifferenceMode:
    def test_fd_mode_tracks_shift_mode(self):
        dataset = tiny_classical(count=5)
        base = dict(model_kind="qsa", epochs=2, seed=31)
        _, shift = train(TrainConfig(**base), dataset)
        _, fd = train(TrainConfig(**base, gradient_mode="finite-difference"), dataset)
        # same trajectory up to finite-difference truncation error
        assert abs(shift.rows[-1].train_loss_offset - fd.rows[-1].train_loss_offset) < 1e-5


class TestPredictQsa:
    def test_qsa_predict_scores_are_probabilistic(self):
        dataset = tiny_classical(count=4)
        config = TrainConfig(model_kind="qsa", epochs=1, seed=32)
        params, _ = train(config, dataset)
        top = predict_topk(params, dataset, k=2)
        assert top.words.shape == top.scores.shape == (4, dataset.num_steps, 2)
        for steps in top.scores.tolist():
            for scores in steps:
                for score in scores:
                    assert 0.0 <= score <= 1.0 + 1e-12
