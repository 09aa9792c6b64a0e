import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qsalab.data import (
    EmbeddingMap,
    IsingModel,
    SequenceDataset,
    build_ising,
    dumps_dataset,
    embed_sequence,
    generate_classical_dataset,
    generate_quantum_dataset,
    load_dataset,
    loads_dataset,
    make_embedding,
    rows_matmul,
    save_dataset,
    sinusoidal_shifts,
)
from qsalab.errors import ConfigurationError, DegenerateInputError

# Frozen from the first verified run: make_embedding(10, 4, 5, seed=2024),
# words [3, 1, 4, 1, 5].
GOLDEN_X0 = [-0.40244265925649314, 0.7962330234286649, 0.0918776277651733, 0.9283424441267678]
GOLDEN_XT4 = [0.03359817753554861, 0.4057600584907788, -0.12614487982317832, 0.5995935828081177]


class TestEmbedding:
    def test_identity_padded_truncates(self):
        # truncation embedding: tokens equal the first d entries of the input
        matrix = np.eye(2, 4).astype(complex)
        emap = EmbeddingMap(matrix, np.zeros((3, 2)), gamma=0.0)
        rng = np.random.default_rng(0)
        amps = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        x, xt = embed_sequence(amps, emap)
        assert np.array_equal(x, xt)
        assert np.max(np.abs(x - amps[:, :2])) < 1e-15

    def test_one_hot_selects_column(self):
        emap = make_embedding(10, 4, 5, seed=1)
        _, xt = embed_sequence([7, 7, 7, 7, 7], emap)
        assert np.max(np.abs(xt - emap.matrix[:, 7])) < 1e-15

    def test_golden_tokens(self):
        emap = make_embedding(10, 4, 5, seed=2024)
        x, xt = embed_sequence([3, 1, 4, 1, 5], emap)
        assert np.max(np.abs(x[0] - GOLDEN_X0)) < 1e-15
        assert np.max(np.abs(xt[4] - GOLDEN_XT4)) < 1e-15

    def test_shift_free_path_is_linear(self):
        emap = make_embedding(10, 4, 5, seed=3)
        a, b = 0.7, -1.3
        w1 = np.zeros(10)
        w1[2] = 1.0
        w2 = np.zeros(10)
        w2[5] = 1.0
        _, xt = embed_sequence(np.stack([a * w1 + b * w2] * 2).astype(complex), _complexify(emap))
        expected = a * _complexify(emap).matrix[:, 2] + b * _complexify(emap).matrix[:, 5]
        assert np.max(np.abs(xt[0] - expected)) < 1e-12

    def test_positional_shifts_distinct(self):
        shifts = sinusoidal_shifts(5, 4)
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.linalg.norm(shifts[i] - shifts[j]) > 1e-6

    def test_requires_reduction(self):
        with pytest.raises(ConfigurationError):
            EmbeddingMap(np.eye(4), np.zeros((5, 4)), gamma=0.1)

    def test_zero_embedding_rejected(self):
        matrix = np.eye(2, 4)
        emap = EmbeddingMap(matrix, np.zeros((3, 2)), gamma=0.0)
        with pytest.raises(DegenerateInputError):
            embed_sequence([3, 3, 3], emap)  # column 3 of eye(2, 4) is zero

    def test_generated_embeddings_have_nonzero_columns(self):
        emap = make_embedding(10, 4, 5, seed=0)
        assert np.all(np.linalg.norm(emap.matrix, axis=0) > 0)


def _complexify(emap):
    return EmbeddingMap(emap.matrix.astype(complex) + 0j, emap.shifts, emap.gamma)


class TestClassicalDataset:
    def test_deterministic_chain_is_learnable_structure(self):
        ds = generate_classical_dataset(6, 4, 50, seed=3, order=1)
        transition = np.array(ds.metadata["generator"]["transition"])
        # order 1 rows are deterministic
        assert np.all(np.isin(transition, [0.0, 1.0]))
        for rec in ds.records:
            for a, b in zip(rec, rec[1:]):
                assert transition[a, b] == 1.0

    def test_same_seed_identical(self):
        a = generate_classical_dataset(10, 4, 30, seed=7)
        b = generate_classical_dataset(10, 4, 30, seed=7)
        assert a.records == b.records
        assert dumps_dataset(a) == dumps_dataset(b)

    def test_bigram_statistics_match_generator(self):
        ds = generate_classical_dataset(10, 4, 300, seed=7, order=2)
        transition = np.array(ds.metadata["generator"]["transition"])
        counts = np.zeros((10, 10))
        for rec in ds.records:
            for a, b in zip(rec, rec[1:]):
                counts[a, b] += 1
        row_totals = counts.sum(axis=1)
        checked = 0
        for row in range(10):
            if row_totals[row] >= 150:  # high-count rows only
                empirical = counts[row] / row_totals[row]
                tv = 0.5 * np.sum(np.abs(empirical - transition[row]))
                assert tv < 0.05
                checked += 1
        assert checked >= 3

    def test_record_length_and_range(self):
        ds = generate_classical_dataset(5, 3, 20, seed=1)
        assert all(len(rec) == 4 for rec in ds.records)
        assert all(0 <= w < 5 for rec in ds.records for w in rec)


class TestInputRows:
    def test_classical_rows_are_one_hot_words(self):
        dataset = generate_classical_dataset(8, 4, 5, seed=6)
        rows = dataset.input_rows()
        words = np.array(dataset.records)
        assert rows.shape == (*words.shape, 8)
        assert set(np.unique(rows).tolist()) == {0.0, 1.0}
        assert np.array_equal(rows.sum(axis=-1), np.ones(words.shape))
        assert np.array_equal(rows.argmax(axis=-1), words)

    def test_quantum_rows_are_the_recorded_amplitudes(self):
        dataset = generate_quantum_dataset(build_ising(2, seed=1), 3, 4, seed=5)
        rows = dataset.input_rows()
        assert rows.shape == (4, 4, 4)
        for s, record in enumerate(dataset.records):
            for t, amplitudes in enumerate(record):
                assert np.array_equal(rows[s, t], amplitudes)


class TestIsing:
    def test_single_qubit_is_pauli_x(self):
        model = build_ising(1, seed=0)
        assert np.max(np.abs(model.hamiltonian - np.array([[0, 1], [1, 0]]))) < 1e-15

    def test_two_qubit_zero_coupling_eigenvalues(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        ham = np.kron(x, np.eye(2)) + np.kron(np.eye(2), x)
        model = IsingModel(2, np.zeros((2, 2)), ham)
        eigs = np.sort(np.linalg.eigvalsh(model.hamiltonian))
        assert np.max(np.abs(eigs - [-2, 0, 0, 2])) < 1e-12

    def test_random_model_hermitian_traceless(self):
        model = build_ising(2, seed=5)
        h = model.hamiltonian
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert abs(np.trace(h)) < 1e-12
        assert np.all(model.couplings >= 0) and np.all(model.couplings <= 1)

    def test_qubit_bound(self):
        with pytest.raises(ConfigurationError):
            build_ising(11, seed=0)


class TestQuantumDataset:
    def test_single_qubit_closed_form(self):
        # e^{-iXt}|0> = cos(t)|0> - i sin(t)|1>
        model = build_ising(1, seed=0)
        ds = generate_quantum_dataset(model, 3, 1, seed=9)
        rng = np.random.default_rng(9)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        for j, step in enumerate(ds.records[0]):
            t = j
            expected = np.array(
                [
                    np.cos(t) * psi[0] - 1j * np.sin(t) * psi[1],
                    np.cos(t) * psi[1] - 1j * np.sin(t) * psi[0],
                ]
            )
            assert np.max(np.abs(step - expected)) < 1e-12

    def test_unit_norm_steps(self):
        model = build_ising(3, seed=2)
        ds = generate_quantum_dataset(model, 4, 20, seed=3)
        for rec in ds.records:
            assert np.max(np.abs(np.linalg.norm(rec, axis=1) - 1.0)) < 1e-12

    def test_energy_conserved(self):
        model = build_ising(3, seed=2)
        ds = generate_quantum_dataset(model, 4, 20, seed=3)
        for rec in ds.records:
            energies = [np.vdot(step, model.hamiltonian @ step).real for step in rec]
            assert np.max(np.abs(np.array(energies) - energies[0])) < 1e-10

    def test_matches_matrix_exponential_oracle(self):
        model = build_ising(3, seed=11)
        ds = generate_quantum_dataset(model, 4, 3, seed=13)
        for rec in ds.records:
            psi = rec[0]
            propagator = expm(-1j * model.hamiltonian)
            state = psi
            for j in range(1, 5):
                state = propagator @ state
                assert np.max(np.abs(rec[j] - state)) < 1e-9


class TestSerialization:
    def test_classical_roundtrip_bit_exact(self):
        ds = generate_classical_dataset(10, 4, 25, seed=7)
        text = dumps_dataset(ds)
        again = loads_dataset(text)
        assert again.records == ds.records
        assert dumps_dataset(again) == text

    def test_quantum_roundtrip_bit_exact(self):
        model = build_ising(2, seed=1)
        ds = generate_quantum_dataset(model, 3, 5, seed=2)
        text = dumps_dataset(ds)
        again = loads_dataset(text)
        for a, b in zip(ds.records, again.records):
            assert np.array_equal(a, b)
        assert dumps_dataset(again) == text

    def test_header_first_line(self):
        ds = generate_classical_dataset(6, 3, 2, seed=0)
        header = json.loads(dumps_dataset(ds).splitlines()[0])
        assert header["kind"] == "classical"
        assert header["D"] == 6
        assert header["T"] == 3
        assert header["seed"] == 0

    def test_file_roundtrip(self, tmp_path):
        ds = generate_classical_dataset(8, 4, 10, seed=5)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        again = load_dataset(path)
        assert again.records == ds.records

    def test_quantum_records_validated(self):
        with pytest.raises(ConfigurationError):
            SequenceDataset("quantum", 2, 1, 0, [np.array([[1.0, 1.0], [1.0, 0.0]])])

    @pytest.mark.parametrize(
        "record",
        [
            [[np.nan, 0.0], [1.0, 0.0]],
            [[complex(0.0, np.nan), 1.0], [1.0, 0.0]],
            [[np.inf, 0.0], [1.0, 0.0]],
            np.array([[True, False], [False, True]]),
            np.array([["1", "0"], ["0", "1"]]),
            [[None, 1.0], [1.0, 0.0]],
        ],
        ids=["nan", "nan-imaginary", "inf", "bool", "str", "none"],
    )
    def test_quantum_amplitudes_must_be_finite_numbers(self, record):
        with pytest.raises(ConfigurationError):
            SequenceDataset("quantum", 2, 1, 0, [[[1.0, 0.0], [0.0, 1.0]], record])

    def test_quantum_records_are_frozen(self):
        ds = SequenceDataset("quantum", 2, 1, 0, [[[1.0, 0.0], [0.0, 1.0]], [[0.6, 0.8j], [1j, 0.0]]])
        assert ds.records[1].dtype == complex and ds.records[1][0, 1] == 0.8j
        with pytest.raises(ValueError):
            ds.records[0][0, 0] = 0.0

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    @pytest.mark.parametrize("num_steps", [0, -1])
    def test_fewer_than_one_step_rejected(self, kind, num_steps):
        # a record of one word has no step to predict
        record = [3] if kind == "classical" else [[0.6, 0.8j]]
        with pytest.raises(ConfigurationError, match="T must be at least 1"):
            SequenceDataset(kind, 8 if kind == "classical" else 2, num_steps, 0, [record])
        header = json.dumps({"kind": "classical", "D": 8, "T": num_steps, "seed": 1})
        with pytest.raises(ConfigurationError, match="T must be at least 1"):
            loads_dataset(header + "\n" + json.dumps({"id": 0, "words": [3]}) + "\n")


@st.composite
def _rows_and_matrix(draw):
    """(S, T, k) rows, contiguous or sliced from a larger block, and a (k, n)
    matrix, each real or complex."""
    shape = [draw(st.integers(1, 64)), draw(st.integers(1, 16)), draw(st.integers(1, 8))]
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def operand(shape, is_complex):
        values = rng.normal(size=shape)
        return values + 1j * rng.normal(size=shape) if is_complex else values

    sliced = draw(st.booleans())
    x = operand([shape[0], shape[1] + sliced, shape[2]], draw(st.booleans()))[:, sliced:]
    m = operand([shape[2], n], draw(st.booleans()))
    return x, m.T.copy().T if draw(st.booleans()) else m


@settings(max_examples=300, deadline=None)
@given(_rows_and_matrix())
def test_rows_matmul_has_the_stacked_products_bits(case):
    x, m = case
    product = rows_matmul(x, m)
    assert product.shape == (x @ m).shape
    assert product.tobytes() == (x @ m).tobytes()
