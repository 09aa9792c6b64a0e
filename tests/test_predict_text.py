"""`qsalab predict` writes the bytes of ``json.dumps(doc, sort_keys=True,
indent=2) + "\\n"`` from fixed templates: checked against ``json.dumps`` on
random top-k arrays.  ``tests/pinned.py`` pins the bytes of predict outputs
that the ``json.dumps`` writer wrote."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsalab.cli import _predict_text

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
