"""`qsalab predict` writes the bytes of ``json.dumps(doc, sort_keys=True,
indent=2) + "\\n"`` from fixed templates: pinned by fixtures written with the
``json.dumps`` writer, and checked against ``json.dumps`` on random rows."""

import json
import math
from pathlib import Path

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


@pytest.mark.parametrize(
    "kind, data_kind",
    [("qsa", "classical"), ("scsa", "classical"), ("lcsa", "classical"), ("qsa", "quantum")],
)
def test_predict_matches_fixture_bytes(tmp_path, kind, data_kind):
    """Each fixture was written by the ``json.dumps`` writer from
    ``train(TrainConfig(model_kind=kind, epochs=1, seed=7), dataset)`` and
    ``qsalab predict --top-k 3`` on the same dataset."""
    dataset = classical_set() if data_kind == "classical" else quantum_set()
    config = TrainConfig(model_kind=kind, epochs=1, seed=7)
    params, _ = train(config, dataset)
    checkpoint, data_path, out = tmp_path / "checkpoint.json", tmp_path / "data.jsonl", tmp_path / "predict.json"
    save_checkpoint(params, config, dataset.kind, checkpoint)
    data.save_dataset(dataset, data_path)
    assert main([
        "predict", "--checkpoint", str(checkpoint), "--data", str(data_path),
        "--top-k", "3", "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (FIXTURES / f"predict_{kind}_{data_kind}.json").read_bytes()


SCORES = st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-300, 0.1 + 0.2, math.nan, math.inf, -math.inf])


@st.composite
def predict_documents(draw):
    vocab = draw(st.integers(1, 8))
    k = draw(st.integers(1, vocab))
    steps = draw(st.integers(1, 6))
    rows = [
        {"id": s, "steps": [
            {"position": j + 2, "top": [
                {"word": draw(st.integers(0, vocab - 1)), "score": draw(SCORES)} for _ in range(k)
            ]}
            for j in range(steps)
        ]}
        for s in range(draw(st.integers(0, 4)))
    ]
    kind = draw(st.sampled_from(["qsa", "scsa", "lcsa", 'q"sa', "lcsä", "back\\slash"]))
    return kind, k, rows


@settings(max_examples=200, deadline=None)
@given(predict_documents())
def test_predict_text_is_json_dumps(doc):
    kind, k, rows = doc
    expected = json.dumps({"model_kind": kind, "top_k": k, "records": rows}, sort_keys=True, indent=2)
    assert _predict_text(kind, k, rows) == expected
