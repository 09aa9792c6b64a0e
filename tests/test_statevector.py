import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsalab.encodings import amplitude_encode, reflection_rows
from qsalab.errors import ConfigurationError
from qsalab.statevector import (
    HADAMARD,
    PAULI_X,
    RegisterLayout,
    StateVector,
    UnitaryBlock,
    _check_reflections,
    _reflect,
    _reflection_select,
    all_zeros_expectation,
    apply_controlled_by_register,
    apply_unitary,
    identity_block,
    inner_product,
    reflection_matrix,
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
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def random_unitary(dim, rng):
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestStateVector:
    def test_zero_state(self):
        state = StateVector.zero(3)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0)

    def test_amplitudes_are_frozen(self):
        state = StateVector.zero(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_amplitude_count_must_match_qubits(self):
        with pytest.raises(ConfigurationError, match="expected 4 amplitudes for 2 qubits, got 8"):
            StateVector(2, np.eye(8)[0])


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

    def test_rejects_negative_targets(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            UnitaryBlock(np.eye(4), (0, -1))

    def test_targets_are_ints_and_set_the_dimension(self):
        block = UnitaryBlock(np.eye(8), [np.int64(2), 0, 1])
        assert block.targets == (2, 0, 1) and all(type(q) is int for q in block.targets)
        assert block.dimension == 8

    def test_target_order_sets_the_bit_order(self):
        # targets[0] is the least-significant bit of the block index, so the
        # same targets listed the other way round take the qubit-swapped matrix
        rng = np.random.default_rng(98)
        matrix = random_unitary(4, rng)
        swap = np.eye(4)[[0, 2, 1, 3]]
        state = random_state(3, rng)
        forward = apply_unitary(state, UnitaryBlock(matrix, (0, 2)))
        reversed_ = apply_unitary(state, UnitaryBlock(swap @ matrix @ swap, (2, 0)))
        assert np.max(np.abs(forward.amplitudes - reversed_.amplitudes)) < 1e-12

    def test_matrix_is_a_frozen_copy(self):
        source = np.array(HADAMARD, dtype=complex)
        block = UnitaryBlock(source, (0,))
        source[0, 0] = 0.0
        assert np.array_equal(block.matrix, HADAMARD)
        with pytest.raises(ValueError):
            block.matrix[0, 0] = 0.0


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

    def test_adjoint_block_undoes_the_block(self):
        rng = np.random.default_rng(97)
        block = UnitaryBlock(random_unitary(4, rng), (2, 0))
        adjoint = UnitaryBlock(block.matrix.conj().T, block.targets)
        state = random_state(3, rng)
        back = apply_unitary(apply_unitary(state, block), adjoint)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-12

    def test_norm_preserved_over_random_sequences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = random_state(3, rng)
            for _ in range(6):
                k = int(rng.integers(1, 3))
                targets = tuple(rng.choice(3, size=k, replace=False))
                state = apply_unitary(state, UnitaryBlock(random_unitary(2 ** k, rng), targets))
            assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) < 1e-10

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

    @pytest.mark.parametrize("controls", [(1, 1), (2,), (-1,)])
    def test_duplicate_or_out_of_range_controls_rejected(self, controls):
        blocks = {j: identity_block((0,)) for j in range(2 ** len(controls))}
        with pytest.raises(ConfigurationError, match="controls must be distinct in-range"):
            apply_controlled_by_register(StateVector.zero(2), controls, blocks)

    def test_block_for_unreachable_control_value_rejected(self):
        blocks = {j: identity_block((0,)) for j in range(3)}
        with pytest.raises(ConfigurationError, match=r"control value\(s\) \[2\] are unreachable"):
            apply_controlled_by_register(StateVector.zero(2), (1,), blocks)

    def test_block_beyond_the_register_rejected(self):
        blocks = {0: identity_block((0,)), 1: identity_block((2,))}
        with pytest.raises(ConfigurationError, match="exceed"):
            apply_controlled_by_register(StateVector.zero(2), (1,), blocks)


class TestExpectations:
    def test_all_zeros_on_basis_states(self):
        assert all_zeros_expectation(StateVector.zero(3)) == 1.0
        other = StateVector(3, np.eye(8)[5])
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
        excited = StateVector(2, np.eye(4)[3])
        assert sample_expectation(excited, 100, seed=1) == 0.0

    def test_sampling_within_three_standard_errors(self):
        state = StateVector(2, np.full(4, 0.5))
        estimate = sample_expectation(state, 10 ** 6, seed=42)
        se = np.sqrt(0.25 * 0.75 / 10 ** 6)
        assert abs(estimate - 0.25) < 3 * se

    def test_sampling_requires_positive_shots(self):
        with pytest.raises(ConfigurationError):
            sample_expectation(StateVector.zero(1), 0, seed=0)
        # TrainConfig.shots' rule: an int, not a bool, in 1..2**63 - 1
        for shots in (2.5, True, 2 ** 63):
            with pytest.raises(ConfigurationError, match="shots must be an integer"):
                sample_expectation(StateVector.zero(1), shots, seed=1)
        assert sample_expectation(StateVector.zero(1), np.int64(2 ** 63 - 1), seed=1) == 1.0

    def test_sampling_error_scales_as_inverse_sqrt_shots(self):
        state = StateVector(2, np.full(4, 0.5))
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
        one = StateVector(1, [0.0, 1.0])
        assert inner_product(zero, one) == 0.0

    def test_hadamard_column(self):
        plus = apply_unitary(StateVector.zero(1), UnitaryBlock(HADAMARD, (0,)))
        assert abs(inner_product(plus, StateVector.zero(1)) - 2 ** -0.5) < 1e-12

    def test_conjugation_on_first_argument(self):
        a = StateVector(1, np.array([1.0, 1j]) / np.sqrt(2.0))
        b = StateVector.zero(1)
        assert abs(inner_product(a, b) - np.conj(1j * 0 + 2 ** -0.5)) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            inner_product(StateVector.zero(1), StateVector.zero(2))


class TestRegisterLayout:
    def test_registers_on_fixed_qubits(self):
        lay = RegisterLayout.of(2, 4)
        assert (lay.n, lay.t) == (2, 1)
        assert lay.a_qubits == (0, 1)
        assert lay.b_qubits == (2, 3)
        assert lay.c_qubits == (4,)
        assert lay.token_dim == 4
        assert lay.num_steps == 2
        assert lay.num_qubits == 5

    @pytest.mark.parametrize("num_steps, token_dim, match", [
        (1, 2, "step count 1"),
        (0, 2, "step count 0"),
        (6, 2, "step count 6"),
        (2, 1, "token dimension 1"),
        (2, 0, "token dimension 0"),
        (2, 12, "token dimension 12"),
    ])
    def test_sizes_must_be_powers_of_two_of_at_least_two(self, num_steps, token_dim, match):
        with pytest.raises(ConfigurationError, match=f"{match} is not a power of two >= 2"):
            RegisterLayout.of(num_steps, token_dim)

    @pytest.mark.parametrize("n, t", [(1, 1), (1, 4), (2, 3), (3, 1), (4, 4)])
    def test_step_indices(self, n, t):
        """Step j sits at j << 2n, C's bits above A's and B's, with A and B at
        zero; one cached layout per (T, d), whose array cannot be written."""
        lay = RegisterLayout.of(2 ** t, 2 ** n)
        expected = [sum(((j >> k) & 1) << q for k, q in enumerate(lay.c_qubits)) for j in range(lay.num_steps)]
        steps = lay.step_indices
        assert steps.tolist() == expected == [j << 2 * n for j in range(2 ** t)]
        assert RegisterLayout.of(2 ** t, 2 ** n).step_indices is steps
        with pytest.raises(ValueError):
            steps[0] = 1


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


def random_rows(shape, dim, rng):
    """Checked Householder rows whose first columns are random complex unit vectors."""
    return reflection_rows(rng.normal(size=shape + (dim,)) + 1j * rng.normal(size=shape + (dim,)))


def select_rows(state, controls, targets, vectors, phases):
    """`_reflection_select` on one state, the row form's select of a single sequence."""
    return _reflection_select(state.amplitudes[None], controls, targets, vectors, phases)[0]


class TestReflectionRows:
    @pytest.mark.parametrize("targets", [(0,), (2,), (0, 2), (2, 0), (1, 3, 0)])
    def test_kernel_and_adjoint_match_dense_oracle(self, targets):
        rng = np.random.default_rng(sum(3 ** i * q for i, q in enumerate(targets)))
        vectors, phases = random_rows((1,), 2 ** len(targets), rng)
        state = random_state(4, rng)
        for applied in (phases, phases.conj()):
            out = select_rows(state, (), targets, vectors, applied)
            expected = dense_apply_oracle(state.amplitudes, reflection_matrix(vectors[0], applied[0]), targets, 4)
            assert np.max(np.abs(out - expected)) <= 1e-12

    def test_adjoint_is_conjugate_transpose_and_inverse(self):
        rng = np.random.default_rng(29)
        vectors, phases = random_rows((1,), 8, rng)
        matrix = reflection_matrix(vectors[0], phases[0])
        assert np.max(np.abs(matrix @ matrix.conj().T - np.eye(8))) <= 1e-12
        assert np.max(np.abs(reflection_matrix(vectors[0], phases[0].conj()) - matrix.conj().T)) <= 1e-12
        state = random_state(3, rng)
        there = StateVector(3, select_rows(state, (), (1, 0, 2), vectors, phases))
        back = select_rows(there, (), (1, 0, 2), vectors, phases.conj())
        assert np.max(np.abs(back - state.amplitudes)) <= 1e-12

    @pytest.mark.parametrize("num_qubits", [1, 3, 6])
    def test_rows_are_one_column_householder_bit_for_bit(self, num_qubits):
        """Reference: one column at a time, `np.linalg.norm` and Python's abs.
        The amplitude encoding of the stack, the same normalization, gives the
        reference's unit columns."""
        rng = np.random.default_rng(67 + num_qubits)
        dim = 2 ** num_qubits
        columns = (rng.normal(size=(8, dim)) + 1j * rng.normal(size=(8, dim))) * rng.uniform(1e-3, 1e3, size=(8, 1))
        columns[1, 0] = 0.0
        columns[2] = columns[2].real
        vectors, phases = reflection_rows(columns)
        units = amplitude_encode(columns, num_qubits)
        for j, column in enumerate(columns):
            unit = column / np.linalg.norm(column)
            assert np.array_equal(units[j], unit)
            phase = unit[0] / abs(unit[0]) if unit[0] != 0 else 1.0
            vector = unit / phase
            vector[0] += 1.0
            assert np.array_equal(vectors[j], vector)
            assert phases[j] == phase
            one_vector, one_phase = reflection_rows(column[None])
            assert np.array_equal(one_vector[0], vector) and one_phase[0] == phase

    @pytest.mark.parametrize("row", [0, 2])
    def test_corrupted_row_rejected(self, row):
        vectors, phases = random_rows((4,), 4, np.random.default_rng(71))
        hit = np.arange(4) == row
        corrupt = [
            (vectors, phases * np.where(hit, 1.001, 1.0)),
            (vectors, np.where(hit, 0.5j, phases)),
            (vectors, np.where(hit, 0.0, phases)),
            (vectors * np.where(hit, 1.001, 1.0)[:, None], phases),
            (vectors + np.where(hit, 1e-6, 0.0)[:, None], phases),
            (np.where(hit[:, None], -vectors, vectors), phases),
            (np.where(hit[:, None], np.nan, vectors), phases),
            (vectors, np.where(hit, complex(np.nan, 0.0), phases)),
            (np.where(hit[:, None], 0.0, vectors), phases),
        ]
        for bad_vectors, bad_phases in corrupt:
            with pytest.raises(ConfigurationError, match=f"reflection {row}"):
                _check_reflections(bad_vectors, bad_phases)

    def test_first_bad_row_is_named(self):
        vectors, phases = random_rows((4,), 4, np.random.default_rng(73))
        bad = phases.copy()
        bad[3] = 0.5
        bad[1] = 2.0
        with pytest.raises(ConfigurationError, match="reflection 1: phase"):
            _check_reflections(vectors, bad)

    def test_row_of_zeros_rejected_by_its_first_entry(self):
        # ||v||^2 = 2 v_1 holds for v = 0, but applying it would divide 0 by 0
        with pytest.raises(ConfigurationError, match="reflection 0: first entry .* below 1"):
            _check_reflections(np.zeros((1, 2), dtype=complex), np.ones(1, dtype=complex))

    def test_stacked_rows_match_each_part_bit_for_bit(self):
        """The engine's inverse encodings build targets and tokens as one
        (2, S, T, dim) stack; each part reads as if built alone."""
        rng = np.random.default_rng(83)
        columns = rng.normal(size=(2, 3, 4, 8)) + 1j * rng.normal(size=(2, 3, 4, 8))
        vectors, phases = reflection_rows(columns)
        assert vectors.shape == columns.shape and phases.shape == columns.shape[:-1]
        for part in range(2):
            alone_vectors, alone_phases = reflection_rows(columns[part])
            assert np.array_equal(vectors[part], alone_vectors)
            assert np.array_equal(phases[part], alone_phases)

    def test_single_row_acts_on_every_row(self):
        rng = np.random.default_rng(89)
        vectors, phases = random_rows((1,), 4, rng)
        x = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
        out = _reflect(vectors, phases, x)
        matrix = reflection_matrix(vectors[0], phases[0])
        for row in range(3):
            assert np.max(np.abs(out[row] - matrix @ x[row])) <= 1e-12

    def test_adjoint_select_undoes_a_batched_select(self):
        """The inverse encodings' round trip: conjugated phases undo the
        select on every sequence of a batch, and the input is left as it was."""
        rng = np.random.default_rng(97)
        vectors, phases = random_rows((3, 4), 4, rng)
        states = np.stack([random_state(5, rng).amplitudes for _ in range(3)])
        kept = states.copy()
        there = _reflection_select(states, (4, 1), (0, 3), vectors, phases)
        assert np.array_equal(states, kept)
        back = _reflection_select(there, (4, 1), (0, 3), vectors, phases.conj())
        assert np.max(np.abs(back - states)) <= 1e-12

    def test_select_layout_rejected(self):
        vectors, phases = random_rows((2,), 4, np.random.default_rng(79))
        with pytest.raises(ConfigurationError, match="disjoint"):
            select_rows(StateVector.zero(3), (1,), (0, 1), vectors, phases)
        with pytest.raises(ConfigurationError, match="exceed"):
            select_rows(StateVector.zero(2), (0,), (1, 2), vectors, phases)


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(2, 6).flatmap(lambda m: st.permutations(range(m))),
    num_controls=st.integers(1, 3),
    num_seqs=st.integers(2, 4),
    adjoint=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
# controls (3, 1): neither the top qubit, not in ascending order; targets
# drawn from {0, 4, 2}, so some sit below a control
@example(order=[3, 1, 0, 4, 2], num_controls=2, num_seqs=2, adjoint=False, seed=0)
@example(order=[3, 1, 0, 4, 2], num_controls=2, num_seqs=3, adjoint=True, seed=1)
def test_batched_reflection_select_matches_explicit_select_matrices(order, num_controls, num_seqs, adjoint, seed):
    """S sequences, each with its own rows on one target tuple, in one
    batched select; the adjoint conjugates the phases."""
    num_qubits = len(order)
    num_controls = min(num_controls, num_qubits - 1)
    controls, free = tuple(order[:num_controls]), order[num_controls:]
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, len(free) + 1))
    targets = tuple(int(q) for q in rng.permutation(free)[:k])
    vectors, phases = random_rows((num_seqs, 2 ** num_controls), 2 ** k, rng)
    if adjoint:
        phases = phases.conj()
    states = np.stack([random_state(num_qubits, rng).amplitudes for _ in range(num_seqs)])
    out = _reflection_select(states, controls, targets, vectors, phases)
    assert out.shape == states.shape
    for s in range(num_seqs):
        blocks = {j: UnitaryBlock(reflection_matrix(vectors[s, j], phases[s, j]), targets)
                  for j in range(2 ** num_controls)}
        expected = explicit_select_matrix(num_qubits, controls, blocks) @ states[s]
        assert np.max(np.abs(out[s] - expected)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(2, 6).flatmap(lambda m: st.permutations(range(m))),
    num_controls=st.integers(1, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(order=[3, 1, 0, 4, 2], num_controls=2, seed=0)
def test_reflection_select_matches_select_of_dense_blocks(order, num_controls, seed):
    """The row form and `apply_controlled_by_register` on the rows' dense
    matrices give one state."""
    num_qubits = len(order)
    num_controls = min(num_controls, num_qubits - 1)
    controls, free = tuple(order[:num_controls]), order[num_controls:]
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, len(free) + 1))
    targets = tuple(int(q) for q in rng.permutation(free)[:k])
    vectors, phases = random_rows((2 ** num_controls,), 2 ** k, rng)
    state = random_state(num_qubits, rng)
    out = select_rows(state, controls, targets, vectors, phases)
    blocks = {j: UnitaryBlock(reflection_matrix(vectors[j], phases[j]), targets) for j in range(2 ** num_controls)}
    dense = apply_controlled_by_register(state, controls, blocks)
    assert np.max(np.abs(out - dense.amplitudes)) <= 1e-12


class TestNonFiniteBlocksRejected:
    def test_unitary_block_with_nan(self):
        matrix = np.eye(2, dtype=complex)
        matrix[0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            UnitaryBlock(matrix, (0,))
