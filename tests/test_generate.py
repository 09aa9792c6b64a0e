"""The Markov walk of ``generate_classical_dataset``: pinned bytes, the same
words as ``Generator.choice`` per step, and no ``choice`` call per step."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsalab import data
from qsalab.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

# fixture name: (kind, vocab or qubits, --order or None to omit it, --len,
# --count, --seed).  `qsalab generate` wrote each classical file while the walk
# still called Generator.choice per step, and each quantum file while the
# Hamiltonian was still a sum of Kronecker products; CI regenerates them through
# the installed script.
GENERATED = {
    "generate_classical_v2_o1.jsonl": ("classical", 2, 1, 9, 4, 3),
    "generate_classical_v10_o2_len257.jsonl": ("classical", 10, None, 257, 3, 7),
    "generate_classical_v16_o3.jsonl": ("classical", 16, 3, 17, 6, 11),
    "generate_quantum_q3.jsonl": ("quantum", 3, None, 5, 2, 2),
    "generate_quantum_q5.jsonl": ("quantum", 5, None, 3, 2, 6),
}


def _argv(kind, size, order, length, count, seed):
    argv = ["generate", "--kind", kind, "--vocab" if kind == "classical" else "--qubits", str(size),
            "--len", str(length), "--count", str(count), "--seed", str(seed)]
    return argv if order is None else argv + ["--order", str(order)]


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_dataset_keeps_its_pinned_bytes(name):
    kind, size, order, length, count, seed = GENERATED[name]
    if kind == "classical":
        order = 2 if order is None else order
        dataset = data.generate_classical_dataset(size, length - 1, count, seed, order=order)
    else:
        dataset = data.generate_quantum_dataset(data.build_ising(size, seed), length - 1, count, seed)
    assert data.dumps_dataset(dataset) == (FIXTURES / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_cli_generate_keeps_its_pinned_bytes(tmp_path, name):
    out = tmp_path / name
    assert main([*_argv(*GENERATED[name]), "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / name).read_bytes()


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
