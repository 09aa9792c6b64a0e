import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsalab.encodings import reflection_family, reflection_with_first_column
from qsalab.errors import ConfigurationError, DegenerateInputError
from qsalab.statevector import (
    HADAMARD,
    PAULI_X,
    OpCounter,
    ReflectionBlock,
    ReflectionFamily,
    RegisterLayout,
    StateVector,
    UnitaryBlock,
    all_zeros_expectation,
    apply_controlled_by_register,
    apply_unitary,
    identity_block,
    inner_product,
    sample_expectation,
)


def dense_apply_oracle(amps, matrix, targets, num_qubits):
    """Index-by-index application of a block, independent of the tensordot path."""
    out = np.zeros_like(amps, dtype=complex)
    k = len(targets)
    clear_mask = ~sum(1 << t for t in targets) & ((1 << num_qubits) - 1)
    for b, amp in enumerate(amps):
        if amp == 0:
            continue
        col = sum(((b >> t) & 1) << i for i, t in enumerate(targets))
        rest = b & clear_mask
        for row in range(2 ** k):
            nb = rest | sum(((row >> i) & 1) << t for i, t in enumerate(targets))
            out[nb] += matrix[row, col] * amp
    return out


def random_state(num_qubits, rng):
    amps = rng.normal(size=2 ** num_qubits) + 1j * rng.normal(size=2 ** num_qubits)
    return StateVector.from_amplitudes(amps, normalize=True)


def random_unitary(dim, rng):
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestStateVector:
    def test_zero_state(self):
        state = StateVector.zero(3)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0)

    def test_length_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            StateVector.from_amplitudes([1.0, 0.0, 0.0])

    def test_normalize_flag(self):
        state = StateVector.from_amplitudes([3.0, 4.0], normalize=True)
        assert np.allclose(state.amplitudes, [0.6, 0.8])
        with pytest.raises(ConfigurationError):
            StateVector.from_amplitudes([3.0, 4.0])
        with pytest.raises(DegenerateInputError):
            StateVector.from_amplitudes([0.0, 0.0], normalize=True)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)])
    def test_non_finite_amplitudes_are_rejected(self, bad, normalize):
        # checked before the norm: a NaN passes both norm tests, and inf / inf warns
        with pytest.raises(ConfigurationError, match="finite"):
            StateVector.from_amplitudes([bad, 1.0], normalize=normalize)

    def test_amplitudes_are_frozen(self):
        state = StateVector.zero(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestUnitaryBlock:
    def test_rejects_non_unitary(self):
        with pytest.raises(ConfigurationError):
            UnitaryBlock(np.array([[1.0, 0.0], [0.0, 2.0]]), (0,))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            UnitaryBlock(np.eye(2), (0, 1))

    def test_rejects_duplicate_targets(self):
        with pytest.raises(ConfigurationError):
            UnitaryBlock(np.eye(4), (1, 1))


class TestApplyUnitary:
    def test_hadamard_on_zero(self):
        state = apply_unitary(StateVector.zero(1), UnitaryBlock(HADAMARD, (0,)))
        assert np.allclose(state.amplitudes, [2 ** -0.5, 2 ** -0.5])

    def test_identity_is_bit_exact(self):
        rng = np.random.default_rng(11)
        state = random_state(3, rng)
        out = apply_unitary(state, identity_block((0, 1, 2)))
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_x_on_qubit_one_little_endian(self):
        state = apply_unitary(StateVector.zero(2), UnitaryBlock(PAULI_X, (1,)))
        expected = np.zeros(4)
        expected[2] = 1.0
        assert np.allclose(state.amplitudes, expected)

    def test_out_of_range_target(self):
        with pytest.raises(ConfigurationError):
            apply_unitary(StateVector.zero(1), UnitaryBlock(PAULI_X, (1,)))

    @pytest.mark.parametrize("targets", [(0,), (2,), (0, 2), (2, 0), (1, 3, 0)])
    def test_matches_dense_oracle(self, targets):
        rng = np.random.default_rng(hash(targets) % (2 ** 31))
        state = random_state(4, rng)
        matrix = random_unitary(2 ** len(targets), rng)
        out = apply_unitary(state, UnitaryBlock(matrix, targets))
        expected = dense_apply_oracle(state.amplitudes, matrix, targets, 4)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_norm_preserved_over_random_sequences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = random_state(3, rng)
            for _ in range(6):
                k = int(rng.integers(1, 3))
                targets = tuple(rng.choice(3, size=k, replace=False))
                state = apply_unitary(state, UnitaryBlock(random_unitary(2 ** k, rng), targets))
            assert abs(state.squared_norm() - 1.0) < 1e-10

    def test_composition_equals_dense_product(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            state = random_state(3, rng)
            targets = (0, 2)
            u = random_unitary(4, rng)
            v = random_unitary(4, rng)
            stepwise = apply_unitary(
                apply_unitary(state, UnitaryBlock(u, targets)), UnitaryBlock(v, targets)
            )
            fused = apply_unitary(state, UnitaryBlock(v @ u, targets))
            assert np.max(np.abs(stepwise.amplitudes - fused.amplitudes)) < 1e-12


class TestControlledByRegister:
    def test_definite_control_applies_block(self):
        # control |0>, blocks {0: X, 1: I} on one target
        state = StateVector.zero(2)
        blocks = {0: UnitaryBlock(PAULI_X, (0,)), 1: identity_block((0,))}
        out = apply_controlled_by_register(state, (1,), blocks)
        expected = np.zeros(4)
        expected[1] = 1.0
        assert np.allclose(out.amplitudes, expected)

    def test_cnot_makes_bell_state(self):
        state = apply_unitary(StateVector.zero(2), UnitaryBlock(HADAMARD, (1,)))
        blocks = {0: identity_block((0,)), 1: UnitaryBlock(PAULI_X, (0,))}
        out = apply_controlled_by_register(state, (1,), blocks)
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 2 ** -0.5
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_matches_dense_select_matrix(self):
        # random 2-qubit blocks controlled on one qubit of a 3-qubit state
        rng = np.random.default_rng(23)
        state = random_state(3, rng)
        blocks = {j: UnitaryBlock(random_unitary(4, rng), (0, 1)) for j in range(2)}
        out = apply_controlled_by_register(state, (2,), blocks)
        # oracle: sum_j U_j (x) |j><j| built explicitly (control is the high bit)
        select = np.zeros((8, 8), dtype=complex)
        for j in range(2):
            proj = np.zeros((2, 2))
            proj[j, j] = 1.0
            select += np.kron(proj, blocks[j].matrix)
        expected = select @ state.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_missing_block_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_controlled_by_register(StateVector.zero(2), (1,), {0: identity_block((0,))})

    def test_overlapping_targets_rejected(self):
        blocks = {0: identity_block((1,)), 1: identity_block((1,))}
        with pytest.raises(ConfigurationError):
            apply_controlled_by_register(StateVector.zero(2), (1,), blocks)

    def test_counter_records_weighted_dims(self):
        counter = OpCounter()
        state = StateVector.zero(3)
        blocks = {j: identity_block((0, 1)) for j in range(2)}
        apply_controlled_by_register(state, (2,), blocks, counter)
        assert counter.blocks == 2
        assert counter.weighted_dim == 8


class TestExpectations:
    def test_all_zeros_on_basis_states(self):
        assert all_zeros_expectation(StateVector.zero(3)) == 1.0
        other = StateVector.from_amplitudes(np.eye(8)[5])
        assert all_zeros_expectation(other) == 0.0

    def test_uniform_superposition(self):
        m = 3
        state = StateVector.zero(m)
        for q in range(m):
            state = apply_unitary(state, UnitaryBlock(HADAMARD, (q,)))
        assert abs(all_zeros_expectation(state) - 2 ** -m) < 1e-12

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        state = random_state(4, rng)
        total = all_zeros_expectation(state) + np.sum(np.abs(state.amplitudes[1:]) ** 2)
        assert abs(total - 1.0) < 1e-12

    def test_sampling_certain_and_impossible(self):
        assert sample_expectation(StateVector.zero(2), 100, seed=1) == 1.0
        excited = StateVector.from_amplitudes(np.eye(4)[3])
        assert sample_expectation(excited, 100, seed=1) == 0.0

    def test_sampling_within_three_standard_errors(self):
        state = StateVector.from_amplitudes(np.full(4, 0.5))
        estimate = sample_expectation(state, 10 ** 6, seed=42)
        se = np.sqrt(0.25 * 0.75 / 10 ** 6)
        assert abs(estimate - 0.25) < 3 * se

    def test_sampling_requires_positive_shots(self):
        with pytest.raises(ConfigurationError):
            sample_expectation(StateVector.zero(1), 0, seed=0)

    def test_sampling_error_scales_as_inverse_sqrt_shots(self):
        state = StateVector.from_amplitudes(np.full(4, 0.5))
        shot_grid = [2 ** k for k in range(7, 15)]
        errors = np.zeros(len(shot_grid))
        for seed in range(50):
            for i, shots in enumerate(shot_grid):
                est = sample_expectation(state, shots, seed=seed * 1000 + i)
                errors[i] += abs(est - 0.25)
        errors /= 50
        slope = np.polyfit(np.log(shot_grid), np.log(errors), 1)[0]
        assert abs(slope + 0.5) < 0.1


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(5)
        state = random_state(3, rng)
        assert abs(inner_product(state, state) - 1.0) < 1e-12

    def test_orthogonal_basis_states(self):
        zero = StateVector.zero(1)
        one = StateVector.from_amplitudes([0.0, 1.0])
        assert inner_product(zero, one) == 0.0

    def test_hadamard_column(self):
        plus = apply_unitary(StateVector.zero(1), UnitaryBlock(HADAMARD, (0,)))
        assert abs(inner_product(plus, StateVector.zero(1)) - 2 ** -0.5) < 1e-12

    def test_conjugation_on_first_argument(self):
        a = StateVector.from_amplitudes([1.0, 1j], normalize=True)
        b = StateVector.zero(1)
        assert abs(inner_product(a, b) - np.conj(1j * 0 + 2 ** -0.5)) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            inner_product(StateVector.zero(1), StateVector.zero(2))


class TestRegisterLayout:
    def test_standard_layout(self):
        lay = RegisterLayout.standard(2, 1)
        assert lay.a_qubits == (0, 1)
        assert lay.b_qubits == (2, 3)
        assert lay.c_qubits == (4,)
        assert lay.token_dim == 4
        assert lay.num_steps == 2
        assert lay.num_qubits == 5

    def test_rejects_overlap_and_gaps(self):
        with pytest.raises(ConfigurationError):
            RegisterLayout((0, 1), (1, 2), (3,))
        with pytest.raises(ConfigurationError):
            RegisterLayout((0,), (1,), (3,))

    def test_requires_step_register(self):
        with pytest.raises(ConfigurationError):
            RegisterLayout.standard(1, 0)


def explicit_select_matrix(num_qubits, controls, blocks):
    """sum_j U_j (x) |j><j| column by column: basis state b reads its control
    value j little-endian from ``controls`` and gets block j's column."""
    dim = 2 ** num_qubits
    select = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        j = sum(((b >> c) & 1) << i for i, c in enumerate(controls))
        block = blocks[j]
        select[:, b] = dense_apply_oracle(np.eye(dim)[b], block.matrix, block.targets, num_qubits)
    return select


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(2, 6).flatmap(lambda m: st.permutations(range(m))),
    num_controls=st.integers(1, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
# controls (3, 1): two of them, neither the top qubit, not in ascending order;
# targets drawn from {0, 4, 2}, so some sit below a control
@example(order=[3, 1, 0, 4, 2], num_controls=2, seed=0)
def test_controlled_blocks_match_explicit_select_matrix(order, num_controls, seed):
    num_qubits = len(order)
    num_controls = min(num_controls, num_qubits - 1)
    controls, free = tuple(order[:num_controls]), order[num_controls:]
    rng = np.random.default_rng(seed)
    blocks = {}
    for j in range(2 ** num_controls):
        k = int(rng.integers(1, len(free) + 1))
        targets = tuple(int(q) for q in rng.permutation(free)[:k])
        blocks[j] = UnitaryBlock(random_unitary(2 ** k, rng), targets)
    state = random_state(num_qubits, rng)
    out = apply_controlled_by_register(state, controls, blocks)
    expected = explicit_select_matrix(num_qubits, controls, blocks) @ state.amplitudes
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12


def random_reflection(targets, rng):
    """The reflection block whose first column is a random complex unit vector."""
    dim = 2 ** len(targets)
    return reflection_with_first_column(rng.normal(size=dim) + 1j * rng.normal(size=dim), targets)


class TestReflectionBlock:
    @pytest.mark.parametrize("targets", [(0,), (2,), (0, 2), (2, 0), (1, 3, 0)])
    def test_block_and_dagger_match_dense_oracle(self, targets):
        rng = np.random.default_rng(sum(3 ** i * q for i, q in enumerate(targets)))
        block = random_reflection(targets, rng)
        state = random_state(4, rng)
        for applied in (block, block.dagger()):
            out = apply_unitary(state, applied)
            expected = dense_apply_oracle(state.amplitudes, applied.matrix, targets, 4)
            assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12

    def test_dagger_is_conjugate_transpose_and_inverse(self):
        rng = np.random.default_rng(29)
        block = random_reflection((1, 0, 2), rng)
        assert np.max(np.abs(block.dagger().matrix - block.matrix.conj().T)) <= 1e-12
        state = random_state(3, rng)
        back = apply_unitary(apply_unitary(state, block), block.dagger())
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-12

    def test_dense_view_is_unitary(self):
        rng = np.random.default_rng(31)
        matrix = random_reflection((0, 1, 2, 3), rng).matrix
        assert np.max(np.abs(matrix @ matrix.conj().T - np.eye(16))) <= 1e-12

    def test_counter_records_dimension(self):
        rng = np.random.default_rng(37)
        counter = OpCounter()
        apply_unitary(random_state(3, rng), random_reflection((2, 0), rng), counter)
        assert (counter.blocks, counter.weighted_dim) == (1, 4)

    def test_corrupted_phase_rejected(self):
        block = random_reflection((0, 1), np.random.default_rng(41))
        for phase in (1.001 * block.phase, 0.5j, 0.0):
            with pytest.raises(ConfigurationError):
                ReflectionBlock(block.vector, phase, block.targets)

    def test_corrupted_vector_rejected(self):
        block = random_reflection((0, 1), np.random.default_rng(43))
        for vector in (1.001 * block.vector, block.vector + 1e-6, -block.vector):
            with pytest.raises(ConfigurationError):
                ReflectionBlock(vector, block.phase, block.targets)

    def test_shape_and_targets_rejected(self):
        block = random_reflection((0, 1), np.random.default_rng(47))
        with pytest.raises(ConfigurationError):
            ReflectionBlock(block.vector, block.phase, (0,))
        with pytest.raises(ConfigurationError):
            ReflectionBlock(block.vector, block.phase, (1, 1))

    def test_vector_is_frozen(self):
        block = random_reflection((0,), np.random.default_rng(53))
        with pytest.raises(ValueError):
            block.vector[0] = 0.0


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(2, 6).flatmap(lambda m: st.permutations(range(m))),
    num_controls=st.integers(1, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
# controls (3, 1): two of them, neither the top qubit, not in ascending order;
# targets drawn from {0, 4, 2}, so some sit below a control
@example(order=[3, 1, 0, 4, 2], num_controls=2, seed=0)
def test_controlled_reflections_match_explicit_select_matrix(order, num_controls, seed):
    """Reflections, their daggers and dense blocks mixed in one select."""
    num_qubits = len(order)
    num_controls = min(num_controls, num_qubits - 1)
    controls, free = tuple(order[:num_controls]), order[num_controls:]
    rng = np.random.default_rng(seed)
    blocks = {}
    for j in range(2 ** num_controls):
        k = int(rng.integers(1, len(free) + 1))
        targets = tuple(int(q) for q in rng.permutation(free)[:k])
        kind = j % 3
        if kind == 2:
            blocks[j] = UnitaryBlock(random_unitary(2 ** k, rng), targets)
        else:
            reflection = random_reflection(targets, rng)
            blocks[j] = reflection.dagger() if kind else reflection
    state = random_state(num_qubits, rng)
    out = apply_controlled_by_register(state, controls, blocks)
    expected = explicit_select_matrix(num_qubits, controls, blocks) @ state.amplitudes
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12


class TestNonFiniteBlocksRejected:
    def test_unitary_block_with_nan(self):
        matrix = np.eye(2, dtype=complex)
        matrix[0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            UnitaryBlock(matrix, (0,))

    def test_reflection_block_with_nan(self):
        with pytest.raises(ConfigurationError):
            ReflectionBlock([np.nan, 0.0], 1.0, (0,))

    def test_reflection_block_of_zeros(self):
        # ||v||^2 = 2 v_1 holds for v = 0, but applying it would divide 0 by 0
        with pytest.raises(ConfigurationError, match="below 1"):
            ReflectionBlock([0.0, 0.0], 1.0, (0,))

    def test_reflection_block_with_nan_phase(self):
        block = random_reflection((0,), np.random.default_rng(59))
        with pytest.raises(ConfigurationError):
            ReflectionBlock(block.vector, complex(np.nan, 0.0), (0,))


def random_family(num_rows, targets, rng):
    """The family whose row j has a random complex unit vector as first column."""
    dim = 2 ** len(targets)
    return reflection_family(rng.normal(size=(num_rows, dim)) + 1j * rng.normal(size=(num_rows, dim)), targets)


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(2, 6).flatmap(lambda m: st.permutations(range(m))),
    num_controls=st.integers(1, 3),
    adjoint=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
# controls (3, 1): neither the top qubit, not in ascending order; targets
# drawn from {0, 4, 2}, so some sit below a control
@example(order=[3, 1, 0, 4, 2], num_controls=2, adjoint=False, seed=0)
@example(order=[3, 1, 0, 4, 2], num_controls=2, adjoint=True, seed=1)
def test_reflection_family_matches_explicit_select_matrix(order, num_controls, adjoint, seed):
    """A family (one target tuple) and its dagger in one batched select."""
    num_qubits = len(order)
    num_controls = min(num_controls, num_qubits - 1)
    controls, free = tuple(order[:num_controls]), order[num_controls:]
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, len(free) + 1))
    targets = tuple(int(q) for q in rng.permutation(free)[:k])
    family = random_family(2 ** num_controls, targets, rng)
    if adjoint:
        family = family.dagger()
    state = random_state(num_qubits, rng)
    counter = OpCounter()
    out = apply_controlled_by_register(state, controls, family, counter)
    expected = explicit_select_matrix(num_qubits, controls, family) @ state.amplitudes
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12
    assert (counter.blocks, counter.weighted_dim) == (2 ** num_controls, 2 ** num_controls * 2 ** k)


class TestReflectionFamily:
    def test_reads_as_a_mapping_of_blocks(self):
        rng = np.random.default_rng(61)
        family = random_family(4, (2, 0), rng)
        assert len(family) == 4 and list(family) == [0, 1, 2, 3]
        assert 3 in family and 4 not in family and -1 not in family and "0" not in family
        for j, block in family.items():
            assert isinstance(block, ReflectionBlock) and block.targets == (2, 0)
            assert np.array_equal(block.vector, family.vectors[j])
            assert block.phase == family.phases[j]
        assert family.dagger()[1].phase == family[1].dagger().phase
        with pytest.raises(KeyError):
            family[4]

    @pytest.mark.parametrize("num_qubits", [1, 3, 6])
    def test_rows_are_one_column_householder_bit_for_bit(self, num_qubits):
        """Reference: one column at a time, `np.linalg.norm` and Python's abs."""
        rng = np.random.default_rng(67 + num_qubits)
        dim = 2 ** num_qubits
        columns = (rng.normal(size=(8, dim)) + 1j * rng.normal(size=(8, dim))) * rng.uniform(1e-3, 1e3, size=(8, 1))
        columns[1, 0] = 0.0
        columns[2] = columns[2].real
        targets = tuple(range(num_qubits))
        family = reflection_family(columns, targets)
        for j, column in enumerate(columns):
            unit = column / np.linalg.norm(column)
            phase = unit[0] / abs(unit[0]) if unit[0] != 0 else 1.0
            vector = unit / phase
            vector[0] += 1.0
            assert np.array_equal(family.vectors[j], vector)
            assert family.phases[j] == phase
            assert np.array_equal(reflection_with_first_column(column, targets).vector, vector)

    @pytest.mark.parametrize("row", [0, 2])
    def test_corrupted_row_rejected(self, row):
        family = random_family(4, (0, 1), np.random.default_rng(71))
        corrupt = [
            (family.vectors, family.phases * np.where(np.arange(4) == row, 1.001, 1.0)),
            (family.vectors, np.where(np.arange(4) == row, 0.5j, family.phases)),
            (family.vectors * np.where(np.arange(4) == row, 1.001, 1.0)[:, None], family.phases),
            (family.vectors + np.where(np.arange(4) == row, 1e-6, 0.0)[:, None], family.phases),
            (np.where(np.arange(4)[:, None] == row, np.nan, family.vectors), family.phases),
            (family.vectors, np.where(np.arange(4) == row, np.nan, family.phases)),
            (np.where(np.arange(4)[:, None] == row, 0.0, family.vectors), family.phases),
        ]
        for vectors, phases in corrupt:
            with pytest.raises(ConfigurationError, match=f"reflection {row}"):
                ReflectionFamily(vectors, phases, family.targets)

    def test_shapes_and_targets_rejected(self):
        family = random_family(2, (0, 1), np.random.default_rng(73))
        with pytest.raises(ConfigurationError):
            ReflectionFamily(family.vectors, family.phases, (0,))
        with pytest.raises(ConfigurationError):
            ReflectionFamily(family.vectors, family.phases[:1], (0, 1))
        with pytest.raises(ConfigurationError):
            ReflectionFamily(family.vectors[0], family.phases[:1], (0, 1))
        with pytest.raises(ConfigurationError):
            ReflectionFamily(family.vectors, family.phases, (1, 1))

    def test_select_validation(self):
        family = random_family(2, (0, 1), np.random.default_rng(79))
        with pytest.raises(ConfigurationError, match="no block"):
            apply_controlled_by_register(StateVector.zero(4), (2, 3), family)
        with pytest.raises(ConfigurationError, match="disjoint"):
            apply_controlled_by_register(StateVector.zero(3), (1,), family)
        with pytest.raises(ConfigurationError, match="exceed"):
            apply_controlled_by_register(StateVector.zero(2), (0,), random_family(2, (1, 2), np.random.default_rng(83)))

    def test_arrays_are_frozen(self):
        family = random_family(2, (0,), np.random.default_rng(89))
        with pytest.raises(ValueError):
            family.vectors[0, 0] = 0.0
        with pytest.raises(ValueError):
            family.phases[0] = 1.0
