import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsalab.encodings import (
    _prefix_sums,
    amplitude_encode,
    entangled_prefix_encoding,
    prepare_input_superposition,
    reflection_rows,
    unitary_with_first_column,
)
from qsalab.errors import ConfigurationError, DegenerateInputError
from qsalab.statevector import StateVector, _reflection_select, reflection_matrix


class TestAmplitudeEncode:
    def test_basis_vector(self):
        assert np.allclose(amplitude_encode([1, 0, 0, 0], 2), [1, 0, 0, 0])

    def test_forced_normalization(self):
        assert np.allclose(amplitude_encode([3.0, 4.0], 1), [0.6, 0.8])

    def test_complex_normalization(self):
        assert np.allclose(amplitude_encode([1.0, 1j], 1), [2 ** -0.5, 1j * 2 ** -0.5])

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            amplitude_encode([0.0, 0.0], 1)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            amplitude_encode([1.0, 0.0, 0.0], 1)

    def test_rows_of_a_stack(self):
        """Each row of a (..., d) stack is encoded on its own, the bits of
        encoding it alone."""
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
        rows = amplitude_encode(stack, 2)
        assert rows.shape == stack.shape
        for index in np.ndindex(2, 3):
            assert np.array_equal(rows[index], amplitude_encode(stack[index], 2))

    def test_ragged_vectors_rejected(self):
        with pytest.raises(ConfigurationError, match="do not stack"):
            amplitude_encode([[1.0, 0.0], [1.0, 0.0, 0.0, 0.0]], 1)


class TestUnitaryCompletion:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_first_column_and_unitarity(self, dim):
        rng = np.random.default_rng(dim)
        col = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        col /= np.linalg.norm(col)
        u = unitary_with_first_column(col)
        assert np.max(np.abs(u[:, 0] - col)) < 1e-12
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12

    def test_basis_first_column(self):
        u = unitary_with_first_column([0.0, 1.0])
        assert np.allclose(u, [[0, 1], [1, 0]])


class TestEntangledPrefixEncoding:
    def test_single_term(self):
        tokens = amplitude_encode([[1, 0]], 1)
        state, weight = entangled_prefix_encoding(tokens, 1)
        assert np.allclose(state.amplitudes, [1, 0, 0, 0])
        assert abs(weight - 1.0) < 1e-12

    def test_orthogonal_tokens_make_bell_pair(self):
        tokens = amplitude_encode([[1, 0], [0, 1]], 1)
        state, weight = entangled_prefix_encoding(tokens, 2)
        expected = np.zeros(4)
        expected[0] = expected[3] = 2 ** -0.5
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12
        assert abs(weight - 2.0) < 1e-12

    def test_matches_explicit_vector_sum(self):
        # x_1 = |0>, x_2 = (|0>+|1>)/sqrt(2): check against the explicit 4-dim sum
        tokens = amplitude_encode([[1, 0], [2 ** -0.5, 2 ** -0.5]], 1)
        state, weight = entangled_prefix_encoding(tokens, 2)
        raw = np.kron([1, 0], [1, 0]) + np.kron(
            [2 ** -0.5, 2 ** -0.5], [2 ** -0.5, 2 ** -0.5]
        )
        expected_weight = float(np.vdot(raw, raw).real)
        assert abs(weight - expected_weight) < 1e-12
        assert np.max(np.abs(state.amplitudes - raw / np.sqrt(expected_weight))) < 1e-12

    def test_orthonormal_tokens_weight_is_prefix_length(self):
        tokens = amplitude_encode(np.eye(4), 2)
        for j in range(1, 5):
            _, weight = entangled_prefix_encoding(tokens, j)
            assert abs(weight - j) < 1e-12

    def test_reduced_density_matrix_is_maximally_mixed(self):
        # tracing out register B for orthonormal tokens leaves eigenvalues 1/j
        tokens = amplitude_encode(np.eye(4), 2)
        for j in range(1, 5):
            state, _ = entangled_prefix_encoding(tokens, j)
            psi = state.amplitudes.reshape(4, 4)  # [b, a] with A in the low bits
            rho_a = np.tensordot(psi, psi.conj(), axes=([0], [0]))
            eigs = np.sort(np.linalg.eigvalsh(rho_a))[::-1]
            assert np.max(np.abs(eigs[:j] - 1.0 / j)) < 1e-10
            if j < eigs.size:
                assert np.max(np.abs(eigs[j:])) < 1e-10

    def test_out_of_range_prefix(self):
        tokens = amplitude_encode([[1, 0]], 1)
        with pytest.raises(ConfigurationError):
            entangled_prefix_encoding(tokens, 2)
        with pytest.raises(ConfigurationError):
            entangled_prefix_encoding(tokens, 0)

    def test_destructive_interference_rejected(self):
        # a relative phase of i makes the doubled encodings cancel exactly
        tokens = amplitude_encode([[1, 0], [1j, 0]], 1)
        with pytest.raises(DegenerateInputError):
            entangled_prefix_encoding(tokens, 2)


class TestPrepareInputSuperposition:
    def test_single_step_rejected(self):
        tokens = amplitude_encode([[1, 0], [0, 1]], 1)
        with pytest.raises(ConfigurationError, match="step count 1"):
            prepare_input_superposition(tokens, 1)

    def test_two_step_state_amplitude_by_amplitude(self):
        # T=2, d=2, tokens |0>, |1>: (|00>|0> + (|00>+|11>)/sqrt(2) |1>)/sqrt(2)
        tokens = amplitude_encode([[1, 0], [0, 1]], 1)
        state = prepare_input_superposition(tokens, 2)
        psi1 = np.kron([1, 0], [1, 0])
        psi2 = (np.kron([1, 0], [1, 0]) + np.kron([0, 1], [0, 1])) / np.sqrt(2)
        expected = (np.kron([1, 0], psi1) + np.kron([0, 1], psi2)) / np.sqrt(2)
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12

    def test_random_tokens_normalized(self):
        rng = np.random.default_rng(17)
        tokens = amplitude_encode(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), 2)
        state = prepare_input_superposition(tokens, 4)
        assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) < 1e-12

    def test_branches_match_prefix_encodings(self):
        rng = np.random.default_rng(19)
        tokens = amplitude_encode(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), 2)
        state = prepare_input_superposition(tokens, 4)
        branches = state.amplitudes.reshape(4, 16)  # [c, ab]
        for j in range(1, 5):
            prefix_state, _ = entangled_prefix_encoding(tokens, j)
            branch = branches[j - 1]
            branch = branch / np.linalg.norm(branch)
            assert np.max(np.abs(branch - prefix_state.amplitudes)) < 1e-12

    def test_ragged_rows_rejected(self):
        with pytest.raises(ConfigurationError, match="do not stack"):
            prepare_input_superposition([[1, 0], [1, 0, 0, 0]], 2)

    def test_no_tokens_rejected(self):
        with pytest.raises(ConfigurationError, match=r"step count must be an integer in 1\.\.0, got 0"):
            prepare_input_superposition(np.zeros((0, 2)), 0)

    def test_too_few_tokens(self):
        tokens = amplitude_encode([[1, 0]], 1)
        with pytest.raises(ConfigurationError):
            prepare_input_superposition(tokens, 2)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=256),
    complex_valued=st.booleans(),
    zero_first=st.booleans(),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_householder_completion_is_unitary_with_exact_first_column(dim, complex_valued, zero_first, seed):
    rng = np.random.default_rng(seed)
    col = rng.normal(size=dim) * rng.uniform(1e-3, 1e3)
    if complex_valued:
        col = col + 1j * rng.normal(size=dim)
    if zero_first:
        col[0] = 0.0
    u = unitary_with_first_column(col)
    col = np.asarray(col, dtype=complex)
    assert np.array_equal(u[:, 0], col / np.linalg.norm(col))
    assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) <= 1e-12
    with pytest.raises(DegenerateInputError):
        unitary_with_first_column(np.zeros(dim))


@settings(max_examples=40, deadline=None)
@given(
    num_qubits=st.integers(1, 8),
    zero_first=st.booleans(),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_reflection_dense_view_is_unitary_with_first_column(num_qubits, zero_first, seed):
    rng = np.random.default_rng(seed)
    dim = 2 ** num_qubits
    col = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * rng.uniform(1e-3, 1e3)
    if zero_first:
        col[0] = 0.0
    vectors, phases = reflection_rows(col[None])
    assert np.max(np.abs(reflection_matrix(vectors[0], phases[0]) - unitary_with_first_column(col))) <= 1e-12
    first = _reflection_select(StateVector.zero(num_qubits).amplitudes[None], (), tuple(range(num_qubits)), vectors, phases)
    assert np.max(np.abs(first[0] - col / np.linalg.norm(col))) <= 1e-12
    with pytest.raises(DegenerateInputError):
        reflection_rows(np.zeros((1, dim)))


class TestDegeneratePrefix:
    """Tokens x and i x: their doubled encodings x(x)x and -x(x)x cancel at j=2."""

    def test_prepare_input_superposition_rejects_cancelling_prefix(self):
        x = np.array([0.6, 0.8j])
        tokens = amplitude_encode([x, 1j * x, [1.0, 0.0], [0.0, 1.0]], 1)
        with pytest.raises(DegenerateInputError, match="interfere to zero norm"):
            prepare_input_superposition(tokens, 4)


def running_prefix_sums(tokens, count):
    """Reference: sum_{i<=j} |x_i>|x_i> as a running sum of np.kron, one token at a time."""
    vec = np.zeros(tokens.shape[-1] ** 2, dtype=complex)
    sums = []
    for s in tokens[:count]:
        vec = vec + np.kron(s, s)
        sums.append(vec)
    return np.array(sums)


def test_prefix_sums_equal_the_running_sum_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        count = int(rng.integers(1, 17))
        shape = (count + int(rng.integers(0, 2)), 2 ** n)
        vectors = rng.normal(size=shape) * rng.uniform(1e-3, 1e3)
        if rng.random() < 0.7:
            vectors = vectors + 1j * rng.normal(size=shape)
        tokens = amplitude_encode(vectors, n)
        assert np.array_equal(_prefix_sums(tokens[:count]), running_prefix_sums(tokens, count))


class TestNonFiniteInputRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)])
    def test_amplitude_encode(self, bad):
        with pytest.raises(DegenerateInputError, match="non-finite"):
            amplitude_encode([bad, 1.0], 1)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_amplitude_encode_norm_overflow(self):
        with pytest.raises(DegenerateInputError, match="non-finite"):
            amplitude_encode([1e200, 1e200], 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0)])
    def test_reflection_rows_of_one_column(self, bad):
        with pytest.raises(DegenerateInputError, match="non-finite"):
            reflection_rows([[bad, 1.0]])

    def test_reflection_rows_reject_non_finite_and_zero_rows(self):
        columns = np.ones((4, 2), dtype=complex)
        columns[2, 1] = np.nan
        with pytest.raises(DegenerateInputError, match="non-finite"):
            reflection_rows(columns)
        with pytest.raises(DegenerateInputError, match="zero vector"):
            reflection_rows(np.zeros((2, 2)))

    def test_reflection_rows_need_stacked_rows(self):
        with pytest.raises(ConfigurationError, match="stacked"):
            reflection_rows(np.ones(2))
