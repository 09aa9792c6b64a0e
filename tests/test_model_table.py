"""Contracts of the per-kind model table: batched prediction equals the
single-sequence oracles, and the data kind a model fits is read off its
embedding alone.  ``tests/pinned.py`` pins the checkpoint v1 files."""

from dataclasses import replace

import numpy as np
import pytest

from qsalab import classical, engine, trainer
from qsalab.classical import linear_attention_layer, scsa_forward_batch
from qsalab.data import DATA_KINDS, embed_sequence, generate_classical_dataset
from qsalab.errors import CompatibilityError
from qsalab.engine import QsaInstance, predict_token_state
from qsalab.trainer import (
    ModelParams,
    TrainConfig,
    evaluate,
    initialize_params,
    load_checkpoint,
    predict_topk,
    save_checkpoint,
    train,
)

from pinned import classical_set, quantum_set


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
        dataset = quantum_set() if quantum else classical_set()
        params, _ = train(TrainConfig(model_kind=kind, epochs=1, seed=40), dataset)
        if tied:
            params = with_tied_words(params)
        vocab = dataset.vocab_dim
        top = predict_topk(params, dataset, k=vocab)
        assert top.words.shape == top.scores.shape == (len(dataset), dataset.num_steps, vocab)
        for s in range(len(dataset)):
            # step j predicts position j + 2
            for j in range(dataset.num_steps):
                expected = oracle_scores(params, dataset, s, j + 1)
                words, scores = top.words[s, j].tolist(), top.scores[s, j].tolist()
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
        predicted = predict_topk(identity, dataset, k=8)
        assert predicted.words.shape == (len(dataset), dataset.num_steps, 8)
        for s, record in enumerate(dataset.records):
            for j in range(dataset.num_steps):
                top = record[j] % 4
                rest = [w for w in range(8) if w % 4 != top]
                assert predicted.words[s, j].tolist() == [top, top + 4] + rest
                assert predicted.scores[s, j].tolist() == [1.0, 1.0] + [0.0] * 6

    def test_no_per_step_model_function(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("predict_topk called a single-sequence oracle")

        for module in (engine, classical, trainer):
            for name in ("predict_token_state", "linear_attention_layer"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        dataset = classical_set()
        for kind in ("qsa", "scsa", "lcsa"):
            params = initialize_params(TrainConfig(model_kind=kind, seed=41), dataset)
            assert predict_topk(params, dataset, k=2).words.shape[0] == len(dataset)


class TestDataKindRule:
    """A model's data kind is its ``data_kind`` property, read off the
    embedding; the checkpoint writer and every fit check read it there."""

    DATA = {"classical": classical_set, "quantum": quantum_set}

    def test_complex_flags_tell_the_kinds_apart(self):
        flags = [kind.complex_valued for kind in DATA_KINDS.values()]
        assert len(set(flags)) == len(flags)

    @pytest.mark.parametrize("data_kind", ["classical", "quantum"])
    @pytest.mark.parametrize("kind", ["qsa", "scsa", "lcsa"])
    def test_checkpoint_records_the_data_it_was_trained_on(self, tmp_path, kind, data_kind):
        config = TrainConfig(model_kind=kind, epochs=1, seed=7)
        params, _ = train(config, self.DATA[data_kind]())
        assert params.data_kind == data_kind
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, config, path)
        loaded, meta = load_checkpoint(path)
        assert meta["data_kind"] == loaded.data_kind == data_kind

    @pytest.mark.parametrize("data_kind", ["classical", "quantum"])
    @pytest.mark.parametrize("kind", ["qsa", "scsa", "lcsa"])
    def test_other_data_kind_is_a_compatibility_error(self, kind, data_kind):
        other = next(name for name in self.DATA if name != data_kind)
        params = initialize_params(TrainConfig(model_kind=kind, seed=7), self.DATA[data_kind]())
        message = f"model was trained on {data_kind} data, got {other}"
        with pytest.raises(CompatibilityError, match=message):
            evaluate(params, self.DATA[other]())
        with pytest.raises(CompatibilityError, match=message):
            predict_topk(params, self.DATA[other](), k=2)
