"""The Markov walk of ``generate_classical_dataset``: the same words as
``Generator.choice`` per step, and no ``choice`` call per step.
``tests/pinned.py`` pins the bytes of ``qsalab generate``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsalab import data


def _choice_walk(vocab_dim, num_steps, count, seed, order):
    """The reference walk: the seeded rows, then one ``Generator.choice`` per step."""
    rng = np.random.default_rng(seed)
    transition = np.zeros((vocab_dim, vocab_dim))
    for row in range(vocab_dim):
        support = rng.choice(vocab_dim, size=order, replace=False)
        weights = rng.random(order)
        transition[row, support] = weights / weights.sum()
    records = []
    for _ in range(count):
        word = int(rng.integers(vocab_dim))
        seq = [word]
        for _ in range(num_steps):
            word = int(rng.choice(vocab_dim, p=transition[word]))
            seq.append(word)
        records.append(seq)
    return transition, records


@st.composite
def _walks(draw):
    vocab_dim = draw(st.integers(2, 64))
    order = draw(st.integers(1, min(4, vocab_dim)))
    return (vocab_dim, draw(st.integers(1, 64)), draw(st.integers(1, 8)),
            draw(st.integers(0, 2 ** 63 - 1)), order)


@settings(max_examples=200, deadline=None)
@given(_walks())
def test_walk_draws_the_words_of_choice(case):
    transition, records = _choice_walk(*case)
    dataset = data.generate_classical_dataset(*case)
    assert dataset.records.tolist() == records
    assert dataset.metadata["generator"]["transition"] == transition.tolist()


class _CountingGenerator:
    """A ``Generator`` that counts its ``choice`` calls."""

    def __init__(self, rng):
        self._rng = rng
        self.choice_calls = 0

    def choice(self, *args, **kwargs):
        self.choice_calls += 1
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_walk_calls_choice_only_for_the_transition_rows(monkeypatch):
    expected = data.generate_classical_dataset(10, 64, 8, seed=5)
    made = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        made.append(_CountingGenerator(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    dataset = data.generate_classical_dataset(10, 64, 8, seed=5)
    assert [rng.choice_calls for rng in made] == [10]
    assert np.array_equal(dataset.records, expected.records)
