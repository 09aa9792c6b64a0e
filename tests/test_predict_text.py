"""`qsalab predict` writes the bytes of ``json.dumps(doc, sort_keys=True,
indent=2) + "\\n"`` from fixed templates: pinned by fixtures written with the
``json.dumps`` writer, and checked against ``json.dumps`` on random top-k arrays."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsalab import data
from qsalab.cli import _predict_text, main
from qsalab.data import build_ising, generate_classical_dataset, generate_quantum_dataset
from qsalab.trainer import TrainConfig, save_checkpoint, train

FIXTURES = Path(__file__).parent / "fixtures"


def classical_set():
    return generate_classical_dataset(8, 4, 12, seed=3, order=2)


def quantum_set():
    return generate_quantum_dataset(build_ising(3, seed=1), 4, 6, seed=4)


def classical_long_set():
    # T=64 > d^2 = 16: the S-CSA forward runs in causal query tiles
    return generate_classical_dataset(8, 64, 3, seed=3, order=2)


DATASETS = {"classical": classical_set, "quantum": quantum_set, "classical_long": classical_long_set}
FIXTURE_CASES = [
    ("qsa", "classical", 3), ("scsa", "classical", 3), ("lcsa", "classical", 3), ("qsa", "quantum", 3),
    ("scsa", "classical_long", 8), ("lcsa", "quantum", 8),
]


@pytest.mark.parametrize("kind, data_kind, top_k", FIXTURE_CASES, ids=[f"{k}-{d}" for k, d, _ in FIXTURE_CASES])
def test_predict_matches_fixture_bytes(tmp_path, kind, data_kind, top_k):
    """Each fixture was written by the ``json.dumps`` writer from
    ``train(TrainConfig(model_kind=kind, epochs=1, seed=7), dataset)`` and
    ``qsalab predict --top-k top_k`` on the same dataset; ``--top-k 8`` is
    the whole vocabulary."""
    dataset = DATASETS[data_kind]()
    config = TrainConfig(model_kind=kind, epochs=1, seed=7)
    params, _ = train(config, dataset)
    checkpoint, data_path, out = tmp_path / "checkpoint.json", tmp_path / "data.jsonl", tmp_path / "predict.json"
    save_checkpoint(params, config, checkpoint)
    data.save_dataset(dataset, data_path)
    assert main([
        "predict", "--checkpoint", str(checkpoint), "--data", str(data_path),
        "--top-k", str(top_k), "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (FIXTURES / f"predict_{kind}_{data_kind}.json").read_bytes()


SCORES = st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-300, 0.1 + 0.2])


@st.composite
def top_k_arrays(draw):
    """(model_kind, words, scores): (S, T, k) arrays as ``predict_topk``
    returns them, with S = 0-4, T = 1-6 and k = 1-D."""
    vocab = draw(st.integers(1, 8))
    shape = (draw(st.integers(0, 4)), draw(st.integers(1, 6)), draw(st.integers(1, vocab)))
    size = math.prod(shape)
    words = draw(st.lists(st.integers(0, vocab - 1), min_size=size, max_size=size))
    scores = draw(st.lists(SCORES, min_size=size, max_size=size))
    kind = draw(st.sampled_from(["qsa", "scsa", "lcsa", 'q"sa', "lcsä", "back\\slash"]))
    return kind, np.array(words, dtype=np.intp).reshape(shape), np.array(scores).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(top_k_arrays())
def test_predict_text_is_json_dumps(doc):
    kind, words, scores = doc
    rows = [
        {"id": s, "steps": [
            {"position": j + 2, "top": [{"word": w, "score": v} for w, v in zip(step_words, step_scores)]}
            for j, (step_words, step_scores) in enumerate(zip(seq_words, seq_scores))
        ]}
        for s, (seq_words, seq_scores) in enumerate(zip(words.tolist(), scores.tolist()))
    ]
    expected = json.dumps({"model_kind": kind, "top_k": words.shape[-1], "records": rows}, sort_keys=True, indent=2)
    assert _predict_text(kind, words, scores) == expected
