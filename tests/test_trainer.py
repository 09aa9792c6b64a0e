import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from qsalab.data import generate_classical_dataset, load_dataset, save_dataset
from qsalab.errors import CompatibilityError, ConfigurationError, NumericFailureError
from qsalab.objectives import PROBABILITY_FLOOR
from qsalab.trainer import (
    MODELS,
    ModelParams,
    TrainConfig,
    _Adapter,
    checkpoint_document,
    config_hash,
    evaluate,
    initialize_params,
    load_checkpoint,
    params_from_payload,
    params_to_payload,
    predict_topk,
    save_checkpoint,
    train,
)

from pinned import classical_set, quantum_set


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
        with pytest.raises(ConfigurationError, match=r"shots must be an integer in 1\.\.9223372036854775807, got 0"):
            TrainConfig(shots=0)
        with pytest.raises(ConfigurationError, match="seed must be non-negative, got -1"):
            TrainConfig(seed=-1)
        with pytest.raises(ConfigurationError,
                           match=r"shots must be an integer in 1\.\.9223372036854775807, got 9223372036854775808"):
            TrainConfig(shots=2 ** 63)
        assert TrainConfig(shots=2 ** 63 - 1).shots == 2 ** 63 - 1


class TestZeroEpochs:
    def test_returns_initial_params_and_empty_curve(self):
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=5)
        dataset = classical_set()
        params, report = train(config, dataset)
        assert report.rows == []
        reference = initialize_params(config, dataset)
        assert np.array_equal(params.lcsa.value_map, reference.lcsa.value_map)
        assert np.array_equal(params.embedding.matrix, reference.embedding.matrix)


class TestGradients:
    def test_shift_rule_matches_finite_differences_over_configs(self):
        # circuit-angle classes (V, W, phase layer) on the full training loss
        dataset = classical_set(count=6)
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
        dataset = classical_set(count=6)
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
        dataset = classical_set()
        config = TrainConfig(model_kind="qsa", epochs=3, seed=1)
        params, report = train(config, dataset)
        assert [row.epoch for row in report.rows] == [0, 1, 2, 3]
        evaluated = evaluate(params, dataset)
        assert abs(evaluated.per_set[0]["loss_offset"] - report.rows[-1].train_loss_offset) < 1e-10

    def test_identical_seed_bitwise_identical_report(self):
        dataset = classical_set()
        config = TrainConfig(model_kind="qsa", epochs=2, seed=11)
        _, report_a = train(config, dataset)
        _, report_b = train(config, dataset)
        assert report_a.to_csv_text() == report_b.to_csv_text()

    def test_loss_constant_column_relation(self):
        dataset = classical_set()
        config = TrainConfig(model_kind="scsa", epochs=2, seed=13)
        _, report = train(config, dataset)
        for row in report.rows:
            assert abs(row.train_loss - row.train_loss_offset - math.log(4)) < 1e-12
            assert abs(row.perplexity - math.exp(row.train_loss_offset)) < 1e-12

    def test_quantum_task_all_models(self):
        dataset = quantum_set()
        for kind in ("qsa", "scsa", "lcsa"):
            config = TrainConfig(model_kind=kind, epochs=2, seed=14)
            params, report = train(config, dataset)
            assert np.isfinite(report.rows[-1].train_loss_offset)

    def test_shot_based_training_is_deterministic(self):
        dataset = classical_set(count=4)
        config = TrainConfig(model_kind="qsa", epochs=1, seed=15, shots=256)
        _, a = train(config, dataset)
        _, b = train(config, dataset)
        assert a.to_csv_text() == b.to_csv_text()

    def test_circuit_route_matches_analytic_route(self):
        dataset = classical_set(count=3)
        base = dict(model_kind="qsa", epochs=1, seed=16)
        _, analytic = train(TrainConfig(**base), dataset)
        _, circuit = train(TrainConfig(**base, expectation_route="circuit"), dataset)
        assert abs(analytic.rows[0].train_loss_offset - circuit.rows[0].train_loss_offset) < 1e-10


class TestEvaluate:
    def test_multiple_sets_aggregate(self):
        dataset = classical_set()
        config = TrainConfig(model_kind="lcsa", epochs=1, seed=17)
        params, _ = train(config, dataset)
        tests = [classical_set(seed=s) for s in (21, 22, 23)]
        report = evaluate(params, tests)
        perps = [entry["perplexity"] for entry in report.per_set]
        assert abs(report.test_perplexity_mean - np.mean(perps)) < 1e-12
        assert abs(report.test_perplexity_stdev - np.std(perps, ddof=1)) < 1e-12

    def test_empty_dataset_rejected(self):
        dataset = classical_set()
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=18)
        params, _ = train(config, dataset)
        with pytest.raises(ConfigurationError, match="^evaluation needs at least one dataset$"):
            evaluate(params, [])

    def test_kind_mismatch_rejected(self):
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=19)
        params, _ = train(config, classical_set())
        with pytest.raises(CompatibilityError):
            evaluate(params, quantum_set())

    @pytest.mark.parametrize("kind", ["qsa", "scsa", "lcsa"])
    def test_a_misfit_second_set_runs_no_forward_pass(self, monkeypatch, kind):
        params, _ = train(TrainConfig(model_kind=kind, epochs=0, seed=20), classical_set())
        forward, forwards = MODELS[kind].forward, []
        monkeypatch.setattr(MODELS[kind], "forward", lambda *args: forwards.append(args) or forward(*args))
        with pytest.raises(CompatibilityError, match="^model vocabulary 8 != dataset 10$"):
            evaluate(params, [classical_set(), generate_classical_dataset(10, 4, 3, seed=2)])
        assert forwards == []
        evaluate(params, [classical_set(), classical_set(seed=5)])
        assert len(forwards) == 2

    def test_messages_name_the_file_of_a_loaded_dataset_only(self, tmp_path):
        params, _ = train(TrainConfig(model_kind="lcsa", epochs=0, seed=21), classical_set())
        wider = generate_classical_dataset(10, 4, 3, seed=2)
        path = tmp_path / "wider.jsonl"
        save_dataset(wider, path)
        for run in (evaluate, predict_topk):
            with pytest.raises(CompatibilityError, match="^model vocabulary 8 != dataset 10$"):
                run(params, wider)
            with pytest.raises(CompatibilityError) as loaded:
                run(params, load_dataset(path))
            assert str(loaded.value) == f"model vocabulary 8 != dataset 10 from {path}"
        dataset = classical_set()
        save_dataset(dataset, path)
        overflowing = replace(params, embedding=replace(params.embedding, gamma=1e308))
        with pytest.raises(NumericFailureError, match="^non-finite prediction scores$"):
            predict_topk(overflowing, dataset)
        with pytest.raises(NumericFailureError) as loaded:
            predict_topk(overflowing, load_dataset(path))
        assert str(loaded.value) == f"non-finite prediction scores on {path}"
        with pytest.raises(NumericFailureError, match="^non-finite loss$"):
            evaluate(overflowing, dataset)
        # the sets are checked in order: the first one's loss is reported
        second = tmp_path / "second.jsonl"
        save_dataset(dataset, second)
        with pytest.raises(NumericFailureError) as loaded:
            evaluate(overflowing, [load_dataset(path), load_dataset(second)])
        assert str(loaded.value) == f"non-finite loss on {path}"

    def test_perfect_predictor_gives_unit_perplexity(self):
        # rank-one value map onto u with all targets embedding parallel to u
        dataset = classical_set()
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
            dataset = classical_set()
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
        params, _ = train(config, quantum_set())
        again = params_from_payload(json.loads(json.dumps(params_to_payload(params))))
        assert np.array_equal(again.embedding.matrix, params.embedding.matrix)
        assert np.array_equal(again.lcsa.value_map, params.lcsa.value_map)

    def test_file_roundtrip_and_kind_check(self, tmp_path):
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=23)
        params, _ = train(config, classical_set())
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, config, path)
        loaded, meta = load_checkpoint(path)
        assert meta["model_kind"] == "lcsa"
        assert meta["data_kind"] == "classical"
        assert np.array_equal(loaded.embedding.matrix, params.embedding.matrix)

    def test_truncated_file_is_typed_error(self, tmp_path):
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=24)
        params, _ = train(config, classical_set())
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, config, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CompatibilityError):
            load_checkpoint(path)

    def test_config_hash_covers_every_field_that_determines_training(self):
        """Each TrainConfig field but the run setting record_timing moves the hash."""
        changed = {"model_kind": "lcsa", "epochs": 7, "learning_rate": 0.1, "embedding_learning_rate": 0.02,
                   "beta1": 0.5, "beta2": 0.9, "epsilon": 1e-6, "seed": 1, "gradient_mode": "finite-difference",
                   "shots": 64, "embedding_trainable": False, "embed_dim": 8, "num_layers": 3, "gamma": 0.2,
                   "key_dim": 2, "ffn_hidden": 3, "expectation_route": "circuit", "fd_step": 1e-3}
        base = TrainConfig()
        assert set(changed) | {"record_timing"} == set(asdict(base))
        hashes = {config_hash(replace(base, **{name: value})) for name, value in changed.items()}
        assert len(hashes | {config_hash(base)}) == len(changed) + 1
        assert config_hash(replace(base, record_timing=True)) == config_hash(base)

    def test_version_mismatch_rejected(self, tmp_path):
        config = TrainConfig(model_kind="lcsa", epochs=0, seed=25)
        params, _ = train(config, classical_set())
        doc = checkpoint_document(params, config)
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
        dataset = classical_set()
        config = TrainConfig(model_kind="scsa", epochs=0, seed=27)
        params, _ = train(config, dataset)
        top = predict_topk(params, dataset, k=3)
        assert top.scores.shape == (len(dataset), dataset.num_steps, 3)
        for steps in top.scores.tolist():
            for scores in steps:
                assert scores == sorted(scores, reverse=True)

    def test_k_outside_the_vocabulary_is_rejected(self):
        dataset = classical_set(count=2)
        params, _ = train(TrainConfig(model_kind="lcsa", epochs=0, seed=27), dataset)
        for k in (0, 9):
            with pytest.raises(ConfigurationError, match=r"k must lie in 1\.\.8"):
                predict_topk(params, dataset, k=k)
        for k in (2.0, True, "2"):
            with pytest.raises(ConfigurationError, match="k must be of type int"):
                predict_topk(params, dataset, k=k)
        assert predict_topk(params, dataset, k=np.int64(2)).words.shape[-1] == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("data", [classical_set, quantum_set], ids=["classical", "quantum"])
    @pytest.mark.parametrize("kind", ["qsa", "scsa", "lcsa"])
    def test_overflowing_forward_raises_numeric_failure(self, kind, data):
        # finite parameters whose forward overflows: no score or loss may come
        # back NaN, no overflow may warn, and qsa's zeroed unit tokens must
        # not read as a vanishing output
        dataset = data()
        params, _ = train(TrainConfig(model_kind=kind, epochs=0, seed=28), dataset)
        emb = params.embedding
        for embedding in (replace(emb, gamma=1e308), emb.with_matrix(emb.matrix * 1e300)):
            with pytest.raises(NumericFailureError, match="^non-finite prediction scores$"):
                predict_topk(replace(params, embedding=embedding), dataset)
            with pytest.raises(NumericFailureError, match="^non-finite loss$"):
                evaluate(replace(params, embedding=embedding), dataset)


@pytest.mark.parametrize("kind", ["qsa", "scsa", "lcsa"])
def test_losses_clamp_at_the_probability_floor(kind):
    # an output under the floor scores as the floor itself, is counted, and
    # passes no slope back; one at the floor itself still has its slope
    model = MODELS[kind]
    probs = np.array([0.0, PROBABILITY_FLOOR / 2, PROBABILITY_FLOOR, 0.5])
    outputs = probs if model.circuit else np.stack([probs, np.full(4, 0.5)], axis=-1)
    losses, clamped, slopes = model.loss(outputs)
    assert clamped == 2
    assert np.isfinite(losses).all()
    assert losses[0] == losses[1] == losses[2] > losses[3]
    assert np.all(slopes[outputs < PROBABILITY_FLOOR] == 0.0)
    assert np.all(slopes[outputs == PROBABILITY_FLOOR] != 0.0)
    assert np.all(slopes[outputs == 0.5] != 0.0)


class TestFiniteDifferenceMode:
    def test_fd_mode_tracks_shift_mode(self):
        dataset = classical_set(count=5)
        base = dict(model_kind="qsa", epochs=2, seed=31)
        _, shift = train(TrainConfig(**base), dataset)
        _, fd = train(TrainConfig(**base, gradient_mode="finite-difference"), dataset)
        # same trajectory up to finite-difference truncation error
        assert abs(shift.rows[-1].train_loss_offset - fd.rows[-1].train_loss_offset) < 1e-5


class TestPredictQsa:
    def test_qsa_predict_scores_are_probabilistic(self):
        dataset = classical_set(count=4)
        config = TrainConfig(model_kind="qsa", epochs=1, seed=32)
        params, _ = train(config, dataset)
        top = predict_topk(params, dataset, k=2)
        assert top.words.shape == top.scores.shape == (4, dataset.num_steps, 2)
        for steps in top.scores.tolist():
            for scores in steps:
                for score in scores:
                    assert 0.0 <= score <= 1.0 + 1e-12
