"""Contracts of the per-kind model table: batched prediction equals the
single-sequence oracles, and checkpoint v1 files load and re-save unchanged."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qsalab import classical, engine, trainer
from qsalab.classical import linear_attention_layer, scsa_forward_batch
from qsalab.data import build_ising, embed_sequence, generate_classical_dataset, generate_quantum_dataset
from qsalab.engine import QsaInstance, predict_token_state
from qsalab.trainer import (
    ModelParams,
    TrainConfig,
    config_hash,
    initialize_params,
    load_checkpoint,
    predict_topk,
    save_checkpoint,
    train,
)

FIXTURES = Path(__file__).parent / "fixtures"


def tiny_classical(count=12, seed=3):
    return generate_classical_dataset(8, 4, count, seed=seed, order=2)


def tiny_quantum(count=6, seed=4):
    return generate_quantum_dataset(build_ising(3, seed=1), 4, count, seed=seed)


def oracle_scores(params, dataset, seq, step):
    """Next-word scores of one sequence and step through the single-sequence oracles."""
    emap = params.embedding
    if params.model_kind == "scsa":
        distributions, _ = scsa_forward_batch(dataset.input_rows()[seq : seq + 1], emap, params.scsa)
        return distributions[0, step - 1]
    x, shift_free = embed_sequence(dataset.records[seq], emap)
    if params.model_kind == "qsa":
        instance = QsaInstance.from_vectors(
            x, shift_free[1:], params.v_params, params.w_params, params.r_params
        )
        z = predict_token_state(instance, step)[0].amplitudes
    else:
        z = linear_attention_layer(list(x), params.lcsa, step)
        z = z / np.linalg.norm(z)
    candidates = emap.matrix.T / np.linalg.norm(emap.matrix.T, axis=1)[:, None]
    return np.abs(candidates.conj() @ z) ** 2


def with_tied_words(params):
    """Copy the first half of the vocabulary's embedding columns (and, for
    scsa, anti-embedding rows) onto the second half, so words w and w + D/2
    score exactly alike."""
    matrix = np.array(params.embedding.matrix)
    half = matrix.shape[1] // 2
    matrix[:, half:] = matrix[:, :half]
    tied = replace(params, embedding=params.embedding.with_matrix(matrix))
    if params.model_kind == "scsa":
        anti = np.array(params.scsa.anti_embed)
        anti[half:] = anti[:half]
        tied = replace(tied, scsa=replace(params.scsa, anti_embed=anti))
    return tied


class TestPredictMatchesOracles:
    @pytest.mark.parametrize("kind", ["qsa", "scsa", "lcsa"])
    @pytest.mark.parametrize("quantum", [False, True])
    @pytest.mark.parametrize("tied", [False, True])
    def test_every_step_matches_single_sequence_oracle(self, kind, quantum, tied):
        dataset = tiny_quantum() if quantum else tiny_classical()
        params, _ = train(TrainConfig(model_kind=kind, epochs=1, seed=40), dataset)
        if tied:
            params = with_tied_words(params)
        vocab = dataset.vocab_dim
        rows = predict_topk(params, dataset, k=vocab)
        assert [row["id"] for row in rows] == list(range(len(dataset)))
        for row in rows:
            assert [step["position"] for step in row["steps"]] == list(range(2, dataset.num_steps + 2))
            for step in row["steps"]:
                expected = oracle_scores(params, dataset, row["id"], step["position"] - 1)
                words = [entry["word"] for entry in step["top"]]
                scores = [entry["score"] for entry in step["top"]]
                assert sorted(words) == list(range(vocab))
                assert np.max(np.abs(np.array(scores) - expected[words])) <= 1e-12
                # descending scores; an exact tie lists the lower word first
                for (w_a, s_a), (w_b, s_b) in zip(zip(words, scores), zip(words[1:], scores[1:])):
                    assert s_a > s_b or (s_a == s_b and w_a < w_b)
                if tied:
                    by_word = dict(zip(words, scores))
                    assert all(by_word[w] == by_word[w + vocab // 2] for w in range(vocab // 2))

    def test_exact_unit_and_zero_scores_list_lowest_word_first(self):
        # orthonormal directions, no positional shifts, identity maps: words w
        # and w + 4 embed alike, so every score is exactly 1 or 0
        dataset = generate_classical_dataset(8, 4, 4, seed=30, order=1)
        params, _ = train(TrainConfig(model_kind="lcsa", epochs=0, seed=26, gamma=0.0), dataset)
        matrix = np.hstack([np.eye(4), np.eye(4)])
        identity = ModelParams(
            "lcsa", params.embedding.with_matrix(matrix), lcsa=type(params.lcsa)(np.eye(4), np.eye(4))
        )
        for row in predict_topk(identity, dataset, k=8):
            record = dataset.records[row["id"]]
            for step in row["steps"]:
                top = record[step["position"] - 2] % 4
                rest = [w for w in range(8) if w % 4 != top]
                assert [entry["word"] for entry in step["top"]] == [top, top + 4] + rest
                assert [entry["score"] for entry in step["top"]] == [1.0, 1.0] + [0.0] * 6

    def test_no_per_step_model_function(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("predict_topk called a single-sequence oracle")

        for module in (engine, classical, trainer):
            for name in ("predict_token_state", "linear_attention_layer"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        dataset = tiny_classical(count=3)
        for kind in ("qsa", "scsa", "lcsa"):
            params = initialize_params(TrainConfig(model_kind=kind, seed=41), dataset)
            assert len(predict_topk(params, dataset, k=2)) == 3


class TestCheckpointFixtures:
    """Checkpoint v1 files written by an earlier build, one per model kind,
    each the result of ``train(TrainConfig(model_kind=kind, epochs=1, seed=7), data)``."""

    @pytest.mark.parametrize(
        "kind, data_kind", [("qsa", "classical"), ("scsa", "classical"), ("lcsa", "quantum")]
    )
    def test_loads_and_resaves_identical_bytes(self, tmp_path, kind, data_kind):
        path = FIXTURES / f"checkpoint_v1_{kind}.json"
        params, meta = load_checkpoint(path, expected_kind=kind)
        config = TrainConfig(model_kind=kind, epochs=1, seed=7)
        assert meta == {
            "model_kind": kind, "data_kind": data_kind, "config_hash": config_hash(config), "seed": 7,
        }
        again = tmp_path / "again.json"
        save_checkpoint(params, config, data_kind, again)
        assert again.read_bytes() == path.read_bytes()
