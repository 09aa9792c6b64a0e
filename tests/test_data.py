import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qsalab.ansatz import AnsatzParams, PhaseLayerParams
from qsalab.classical import LcsaParams, ScsaParams, lcsa_step_probability, linear_attention_layer, scsa_forward
from qsalab.complexity import count_gates, crossover_report, fit_scaling
from qsalab.data import (
    DATA_KINDS,
    INT64_MAX,
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
from qsalab.encodings import entangled_prefix_encoding, prepare_input_superposition
from qsalab.engine import QsaInstance, predict_token_state
from qsalab.errors import ConfigurationError, DegenerateInputError
from qsalab.objectives import renyi_half_from_expectation
from qsalab.statevector import StateVector, sample_expectation
from qsalab.trainer import TrainConfig, initialize_params, predict_topk

from pinned import classical_set

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
        assert np.array_equal(a.records, b.records)
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
        words = dataset.records
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

    @pytest.mark.parametrize("record, message", [
        ([0, -1, 3], "word index outside the vocabulary"),
        ([0, 1.7, 3], "classical words must be integer indices, got float"),
        ([True, 1, 2], "classical words must be integer indices, got bool"),
        ([0, 5, 1], "word index outside the vocabulary"),
        ([0, 2 ** 64, 1], "word index outside the vocabulary"),
        ([[np.nan, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]],
         "quantum amplitudes must be finite numbers, got NaN"),
        ([[1, 0, 0, 0, 0], [0, complex(0, np.inf), 0, 0, 0], [0, 0, 1, 0, 0]],
         "quantum amplitudes must be finite numbers, got Infinity"),
        (np.eye(5, dtype=bool)[:3], "quantum amplitudes must be numbers, got bool"),
        ([["1", "0", "0", "0", "0"], ["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"]],
         "quantum amplitudes must be numbers, got str32"),
        (np.eye(4)[:3], "quantum records must be (T+1, D) amplitude rows"),
    ], ids=["negative", "float", "bool", "index-D", "beyond-int64",
            "amplitude-nan", "amplitude-infinity", "amplitude-bool", "amplitude-str", "amplitude-width"])
    def test_single_sequences_get_the_dataset_verdict(self, record, message):
        """A single record, words or amplitude rows by its rank, meets its
        kind's dataset rule: the same message from the dataset, from
        embed_sequence and from scsa_forward."""
        kind, valid = ("quantum", np.eye(5)[:3]) if np.ndim(record) == 2 else ("classical", [0, 1, 2])
        with pytest.raises(ConfigurationError) as verdict:
            SequenceDataset(kind, 5, 2, 0, [valid, record])
        assert str(verdict.value) == message
        emap = make_embedding(5, 2, 3, seed=0)
        params = ScsaParams.random(2, 5, seed=0)
        with pytest.raises(ConfigurationError) as embedded:
            embed_sequence(record, emap)
        with pytest.raises(ConfigurationError) as forwarded:
            scsa_forward(record, emap, params)
        assert str(embedded.value) == str(forwarded.value) == message

    def test_one_word_record_embeds(self):
        emap = make_embedding(5, 2, 3, seed=0)
        x, shift_free = embed_sequence([4], emap)
        assert np.array_equal(shift_free, emap.matrix[:, 4][None])
        assert np.array_equal(x, shift_free + emap.gamma * emap.shifts[:1])

    @pytest.mark.parametrize("record", [[4], [[0, 0, 0, 0, 1]]], ids=["word", "amplitudes"])
    def test_one_word_record_has_no_step_to_predict(self, record):
        """A one-word record embeds, but S-CSA has no step to predict on it:
        the dataset's verdict, not an error from inside the attention."""
        with pytest.raises(ConfigurationError) as verdict:
            SequenceDataset("classical", 5, 0, 0, [[4]])
        with pytest.raises(ConfigurationError) as forwarded:
            scsa_forward(record, make_embedding(5, 2, 3, seed=0), ScsaParams.random(2, 5, seed=0))
        assert str(forwarded.value) == str(verdict.value) == "dataset T must be an integer in 1..9223372036854775807, got 0"


@pytest.mark.parametrize("draw", [
    lambda seed: AnsatzParams.random(2, 1, seed),
    lambda seed: PhaseLayerParams.random(2, seed),
    lambda seed: ScsaParams.random(2, 5, seed),
    lambda seed: LcsaParams.near_identity(2, seed),
    lambda seed: make_embedding(5, 2, 3, seed),
    lambda seed: sample_expectation(StateVector.zero(1), 8, seed),
    lambda seed: build_ising(2, seed),
    lambda seed: generate_classical_dataset(8, 2, 1, seed),
    lambda seed: generate_quantum_dataset(build_ising(1, 0), 2, 1, seed),
], ids=["ansatz", "phase-layer", "scsa", "lcsa", "embedding", "sample-expectation", "ising", "classical-dataset",
        "quantum-dataset"])
def test_negative_seed_is_a_configuration_error(draw):
    """A seed is an int, not a bool, at least 0: numpy refuses a float or a str
    with a bare TypeError and reads True as 1."""
    draw(0)
    for seed, message in ((-1, "seed must be non-negative, got -1"), (1.5, "seed must be of type int, got 1.5"),
                          (True, "seed must be of type int, got True"), ("3", "seed must be of type int, got '3'")):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            draw(seed)


# Three tokens and two targets: each function below takes steps 1..2.
TOKENS = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])


@pytest.mark.parametrize("call", [
    lambda step: predict_token_state(QsaInstance(TOKENS, TOKENS[1:], AnsatzParams.zeros(1, 1),
                                                 AnsatzParams.zeros(1, 1), PhaseLayerParams.zeros(1)), step),
    lambda step: linear_attention_layer(TOKENS[:2], LcsaParams.near_identity(2, 0), step),
    lambda step: lcsa_step_probability(TOKENS[:2], TOKENS[1:], LcsaParams.near_identity(2, 0), step),
    lambda step: entangled_prefix_encoding(TOKENS[:2], step),
    lambda step: prepare_input_superposition(TOKENS[:2], step),
], ids=["predict-token-state", "linear-attention-layer", "lcsa-step-probability", "entangled-prefix-encoding",
        "prepare-input-superposition"])
@pytest.mark.parametrize("step", [2.0, True, 0, 3], ids=["float", "bool", "zero", "past-the-end"])
def test_a_step_is_an_int_in_range(call, step):
    """One rule for a single sequence's step or prefix length: an int, not a
    float or a bool, in 1..T, else a ConfigurationError naming the range."""
    call(2)
    with pytest.raises(ConfigurationError, match=rf"must be an integer in 1\.\.2, got {step!r}$"):
        call(step)


@pytest.fixture(scope="module")
def lcsa_model():
    """An untrained lcsa model on an 8-word dataset, for predict_topk's k."""
    dataset = classical_set(count=2)
    return initialize_params(TrainConfig(model_kind="lcsa", seed=27), dataset), dataset


# name -> (a call of one size, a size it takes, the size's name in the message, its last value)
SIZES = {
    "classical-count": (lambda n, _: generate_classical_dataset(8, 2, n, seed=0), 3, "count", INT64_MAX),
    "classical-steps": (lambda n, _: generate_classical_dataset(8, n, 1, seed=0), 4, "dataset T", INT64_MAX),
    "classical-vocab": (lambda n, _: generate_classical_dataset(n, 2, 1, seed=0, order=1), 8, "vocab_dim", INT64_MAX),
    "classical-order": (lambda n, _: generate_classical_dataset(8, 2, 1, seed=0, order=n), 2, "order", 8),
    "quantum-count": (lambda n, _: generate_quantum_dataset(build_ising(1, 0), 2, n, seed=0), 3, "count", INT64_MAX),
    "quantum-steps": (lambda n, _: generate_quantum_dataset(build_ising(1, 0), n, 1, seed=0), 2, "dataset T",
                      INT64_MAX),
    "build-ising": (lambda n, _: build_ising(n, seed=0), 2, "num_qubits", 10),
    "ising-model": (lambda n, _: IsingModel(n, np.zeros((2, 2))), 2, "num_qubits", 10),
    "predict-topk": (lambda n, model: predict_topk(*model, k=n), 3, "k", 8),
    "gates-steps": (lambda n, _: count_gates("csa", n, 4, 16, 5), 4, "num_steps", INT64_MAX),
    "gates-token-dim": (lambda n, _: count_gates("csa", 4, n, 16, 5), 4, "token_dim", INT64_MAX),
    "gates-vocab": (lambda n, _: count_gates("csa", 4, 4, n, 5), 16, "vocab_dim", INT64_MAX),
    "gates-layers": (lambda n, _: count_gates("csa", 4, 4, 16, n), 5, "num_layers", INT64_MAX),
    "crossover": (lambda n, _: crossover_report([n], [4], 16, 5), 4, "num_steps", INT64_MAX),
    "scaling-grid": (lambda n, _: fit_scaling("csa", "T", [n, 2 * n, 4 * n, 8 * n]), 4, "grid point", INT64_MAX),
    "renyi-half": (lambda n, _: renyi_half_from_expectation(0.5, n), 4, "num_steps", INT64_MAX),
}


@pytest.mark.parametrize("call, size, name, last", SIZES.values(), ids=SIZES.keys())
@pytest.mark.parametrize("value", [2.5, "float(size)", True, 0, "last+1"],
                         ids=["float", "whole-float", "bool", "zero", "past-the-end"])
def test_a_size_is_an_int_in_range(lcsa_model, call, size, name, last, value):
    """The step rule holds for every count, size and index: an int, not a
    float or a bool, in 1..last, else a ConfigurationError naming the range;
    count_gates read 2.5 as 2 and True as 1, and numpy refused 8.0 with a bare
    TypeError."""
    call(size, lcsa_model)
    value = {"float(size)": float(size), "last+1": last + 1}.get(value, value)
    with pytest.raises(ConfigurationError, match=rf"^{name} must be an integer in 1\.\.{last}, got {value!r}$"):
        call(value, lcsa_model)


SCALAR_FIELDS = {  # a params dataclass built with one mistyped scalar field, and its message
    "ansatz-real-valued-str": (lambda: AnsatzParams(1, 1, np.zeros((2, 1, 2)), real_valued="no"),
                               "real_valued must be of type bool, got 'no'"),
    "ansatz-layers-bool": (lambda: AnsatzParams(2, True, np.zeros((2, 2, 2))), "num_layers must be of type int, got True"),
    "ansatz-layers-float": (lambda: AnsatzParams(2, 1.0, np.zeros((2, 2, 2))), "num_layers must be of type int, got 1.0"),
    "ansatz-qubits-float": (lambda: AnsatzParams(2.0, 1, np.zeros((2, 2, 2))), "num_qubits must be of type int, got 2.0"),
    "state-qubits-float": (lambda: StateVector(2.0, np.eye(4)[0]), "num_qubits must be of type int, got 2.0"),
    "embedding-gamma-str": (lambda: EmbeddingMap(np.eye(2, 4), np.zeros((3, 2)), gamma="x"),
                            "gamma must be of type float, got 'x'"),
    "embedding-gamma-nan": (lambda: EmbeddingMap(np.eye(2, 4), np.zeros((3, 2)), gamma=float("nan")),
                            "gamma must be finite, got nan"),
}


@pytest.mark.parametrize("build, message", SCALAR_FIELDS.values(), ids=SCALAR_FIELDS.keys())
def test_params_dataclasses_type_their_scalar_fields(build, message):
    """Each scalar field is typed as TrainConfig's are: "no" would build the
    real ansatz, and a string gamma fail later inside numpy."""
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        build()


class TestIsing:
    def test_single_qubit_is_pauli_x(self):
        model = build_ising(1, seed=0)
        assert np.max(np.abs(model.hamiltonian - np.array([[0, 1], [1, 0]]))) < 1e-15

    def test_two_qubit_zero_coupling_eigenvalues(self):
        model = IsingModel(2, np.zeros((2, 2)))
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

    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_hamiltonian_has_the_kronecker_sum_bits(self, num_qubits):
        def site(op, i):  # qubit i is bit i of the basis index
            return np.kron(np.kron(np.eye(2 ** (num_qubits - 1 - i)), op), np.eye(2 ** i))

        x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
        for seed in range(4):
            model = build_ising(num_qubits, seed)
            oracle = np.zeros((model.dim, model.dim), dtype=complex)
            for i in range(num_qubits):
                oracle += site(x, i)
            for i in range(num_qubits):
                for j in range(i + 1, num_qubits):
                    oracle += model.couplings[i, j] * (site(z, i) @ site(z, j))
            assert model.hamiltonian.tobytes() == oracle.tobytes()
            assert not model.hamiltonian.flags.writeable and not model.couplings.flags.writeable

    def test_couplings_alone_define_the_model(self):
        model = build_ising(3, seed=4)
        again = IsingModel(3, model.couplings.tolist())
        assert again.hamiltonian.tobytes() == model.hamiltonian.tobytes()
        with pytest.raises(TypeError):
            IsingModel(3, model.couplings, model.hamiltonian)

    @pytest.mark.parametrize("num_qubits, couplings", [
        (2, [[0.0, 0.5], [0.5 + 1e-12, 0.0]]),
        (2, [[0.0, np.nan], [np.nan, 0.0]]),
        (2, [[0.0, 1.5], [1.5, 0.0]]),
        (2, [[0.0, -0.5], [-0.5, 0.0]]),
        (2, [[0.5, 0.5], [0.5, 0.0]]),
        (2, np.zeros((3, 3))),
        (2, np.zeros(2)),
        (0, np.zeros((0, 0))),
        (11, np.zeros((11, 11))),
        (True, np.zeros((1, 1))),
    ], ids=["off-symmetric", "nan", "above-one", "negative", "diagonal", "shape", "vector", "q0", "q11", "bool"])
    def test_malformed_models_are_rejected(self, num_qubits, couplings):
        with pytest.raises(ConfigurationError):
            IsingModel(num_qubits, couplings)


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


class TestRecordsArray:
    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_records_are_one_read_only_array(self, kind):
        if kind == "classical":
            ds, shape, dtype = generate_classical_dataset(8, 4, 5, seed=6), (5, 5), np.int64
        else:
            ds, shape, dtype = generate_quantum_dataset(build_ising(2, seed=1), 4, 5, seed=5), (5, 5, 4), np.complex128
        for dataset in (ds, loads_dataset(dumps_dataset(ds))):
            assert type(dataset.records) is np.ndarray
            assert dataset.records.shape == shape and dataset.records.dtype == dtype
            with pytest.raises(ValueError, match="read-only"):
                dataset.records[0, 0] = 1
            assert np.shares_memory(dataset.input_rows(), dataset.records) == (kind == "quantum")
        with pytest.raises(ConfigurationError, match="^dataset holds no records$"):
            loads_dataset(dumps_dataset(ds).splitlines()[0])

    def test_equality_is_identity(self):
        ds = generate_classical_dataset(8, 4, 5, seed=6)
        assert ds == ds
        assert ds != loads_dataset(dumps_dataset(ds))


class TestSource:
    """A dataset read by ``load_dataset`` knows its file, and every error of that
    read names it; a dataset made in memory has no source and names none."""

    def test_only_a_loaded_dataset_has_a_source(self, tmp_path):
        ds = generate_classical_dataset(8, 4, 5, seed=6)
        quantum = generate_quantum_dataset(build_ising(2, seed=1), 4, 3, seed=5)
        in_memory = (ds, quantum, loads_dataset(dumps_dataset(ds)))
        assert [dataset.source for dataset in in_memory] == [None, None, None]
        path = tmp_path / "d.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.source == str(path)
        assert dumps_dataset(loaded) == path.read_text()  # the source is not written
        with pytest.raises(TypeError):
            SequenceDataset("classical", 8, 4, 6, ds.records, source=str(path))

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_a_dataset_holds_at_least_one_record(self, kind):
        vocab_dim, shape = (8, (0, 5)) if kind == "classical" else (4, (0, 5, 4))
        for records in ([], np.empty(shape)):
            with pytest.raises(ConfigurationError, match="^dataset holds no records$"):
                SequenceDataset(kind, vocab_dim, 4, 0, records)

    @pytest.mark.parametrize("body, message", [
        ("", "dataset file is empty"),
        ("{header}\n", "dataset holds no records"),
        ("{header}\n{\n", "malformed dataset: JSONDecodeError: "),
        ("{header}\n" + json.dumps({"id": 0, "words": [0, 1, 2, 3, 9]}) + "\n", "word index outside the vocabulary"),
    ], ids=["empty", "header-only", "bad-json", "word-outside"])
    def test_every_load_error_names_the_file(self, tmp_path, body, message):
        text = body.replace("{header}", dumps_dataset(generate_classical_dataset(8, 4, 5, seed=6)).splitlines()[0])
        with pytest.raises(ConfigurationError) as in_memory:
            loads_dataset(text)
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        with pytest.raises(ConfigurationError) as loaded:
            load_dataset(path)
        assert str(in_memory.value).startswith(message) and str(path) not in str(in_memory.value)
        assert str(loaded.value) == f"{in_memory.value} in {path}"


class TestSerialization:
    @pytest.mark.parametrize("kind", DATA_KINDS)
    def test_every_kind_roundtrips_bit_exact(self, kind):
        """A generated dataset of each data kind reads back to the same
        records and writes back to the same bytes; a kind added to the table
        needs a generator here."""
        ds = {"classical": lambda: generate_classical_dataset(10, 4, 25, seed=7),
              "quantum": lambda: generate_quantum_dataset(build_ising(2, seed=1), 3, 5, seed=2)}[kind]()
        text = dumps_dataset(ds)
        again = loads_dataset(text)
        assert again.records.dtype == ds.records.dtype and again.records.tobytes() == ds.records.tobytes()
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
        assert np.array_equal(again.records, ds.records)

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

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "1E+999", "Infinity", "-Infinity", "NaN"])
    def test_a_loaded_non_finite_amplitude_is_named_as_written(self, literal):
        """The first amplitude whose value is not finite is named as the file
        spells it: ``1e400`` parses as an infinity, but is not written so."""
        header = json.dumps({"kind": "quantum", "D": 2, "T": 1, "seed": 0})
        first = json.dumps({"id": 0, "steps": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
        second = '{"id": 1, "steps": [[[1, 0], [0, 0]], [[0, 0], [%s, Infinity]]]}' % literal
        with pytest.raises(ConfigurationError) as verdict:
            loads_dataset("\n".join([header, first, second]) + "\n")
        assert str(verdict.value) == f"quantum amplitudes must be finite numbers, got {literal}"

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
        message = rf"T must be an integer in 1\.\.9223372036854775807, got {num_steps}"
        with pytest.raises(ConfigurationError, match=message):
            SequenceDataset(kind, 8 if kind == "classical" else 2, num_steps, 0, [record])
        header = json.dumps({"kind": "classical", "D": 8, "T": num_steps, "seed": 1})
        with pytest.raises(ConfigurationError, match=message):
            loads_dataset(header + "\n" + json.dumps({"id": 0, "words": [3]}) + "\n")
        with pytest.raises(ConfigurationError, match=message):
            if kind == "classical":
                generate_classical_dataset(8, num_steps, 1, seed=0)
            else:
                generate_quantum_dataset(build_ising(1, seed=0), num_steps, 1, seed=0)


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
