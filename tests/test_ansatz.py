import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsalab.ansatz import (
    AnsatzParams,
    PhaseLayerParams,
    _rotation_layers,
    build_ansatz_unitary,
    build_phase_layer,
    parameter_shift_gradient,
    phase_layer_diagonal,
    rotation_y,
    rotation_z,
)
from qsalab.errors import ConfigurationError
from qsalab.statevector import StateVector, UnitaryBlock, apply_unitary


def central_difference(fn, values, index, h=1e-5):
    plus = values.copy()
    minus = values.copy()
    plus[index] += h
    minus[index] -= h
    return (fn(plus) - fn(minus)) / (2 * h)


class TestAnsatzParams:
    def test_angle_count_invariant(self):
        params = AnsatzParams.random(3, 5, seed=0)
        assert params.angles.size == (5 + 1) * 3 * 2

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            AnsatzParams(2, 1, np.zeros((1, 2, 2)))

    def test_rejects_non_finite(self):
        angles = np.zeros((2, 1, 2))
        angles[0, 0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            AnsatzParams(1, 1, angles)

    def test_random_initialization_spread(self):
        params = AnsatzParams.random(2, 5, seed=1, spread=0.1)
        assert np.all(np.abs(params.angles) <= 0.1)

    def test_flat_roundtrip(self):
        params = AnsatzParams.random(2, 2, seed=3)
        again = params.with_flat(params.flat())
        assert np.array_equal(again.angles, params.angles)


class TestBuildAnsatzUnitary:
    def test_zero_angles_give_identity(self):
        block = build_ansatz_unitary(AnsatzParams.zeros(1, 1))
        assert np.max(np.abs(block.matrix - np.eye(2))) < 1e-15

    def test_rotation_only_layer(self):
        # rotation layer alone: theta=pi, phi=0 gives Ry(pi)
        angles = np.zeros((1, 1, 2))
        angles[0, 0, 0] = np.pi
        block = build_ansatz_unitary(AnsatzParams(1, 0, angles))
        assert np.max(np.abs(block.matrix - np.array([[0, -1], [1, 0]]))) < 1e-15

    def test_unitarity_over_random_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 3))
            layers = int(rng.integers(1, 6))
            params = AnsatzParams(n, layers, rng.uniform(-np.pi, np.pi, size=(layers + 1, n, 2)))
            u = build_ansatz_unitary(params).matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(2 ** n))) < 1e-12

    def test_real_valued_restriction_is_real(self):
        params = AnsatzParams.random(2, 3, seed=5, real_valued=True)
        u = build_ansatz_unitary(params).matrix
        assert np.max(np.abs(u.imag)) < 1e-15

    def test_single_layer_matches_explicit_construction(self):
        # one layer on 2 qubits: CNOT(0->1) after per-qubit Ry Rz, then final rotations
        rng = np.random.default_rng(8)
        angles = rng.uniform(-np.pi, np.pi, size=(2, 2, 2))
        params = AnsatzParams(2, 1, angles)
        cnot = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )

        def rot(layer):
            mats = [rotation_y(angles[layer, q, 0]) @ rotation_z(angles[layer, q, 1]) for q in range(2)]
            return np.kron(mats[1], mats[0])

        expected = rot(1) @ cnot @ rot(0)
        assert np.max(np.abs(build_ansatz_unitary(params).matrix - expected)) < 1e-12


def rotation_layer_one_qubit_at_a_time(layer_angles, real_valued):
    """One rotation layer as it was built before the batched pass: one
    Ry Rz factor per qubit and one Kronecker step per qubit."""
    full = np.eye(1, dtype=complex)
    for q in range(layer_angles.shape[0] - 1, -1, -1):
        mat = rotation_y(layer_angles[q, 0])
        if not real_valued:
            mat = mat @ rotation_z(layer_angles[q, 1])
        # np.kron(full, mat) without its generic-shape overhead
        full = (full[:, None, :, None] * mat[None, :, None, :]).reshape(2 * full.shape[0], -1)
    return full


@st.composite
def layer_angles(draw):
    num_qubits, num_layers = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    angle = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    return draw(hnp.arrays(float, (num_layers + 1, num_qubits, 2), elements=angle))


@settings(max_examples=200, deadline=None)
@given(angles=layer_angles(), real_valued=st.booleans())
def test_batched_rotation_layers_are_bit_identical(angles, real_valued):
    got = _rotation_layers(angles, real_valued)
    expected = np.stack([rotation_layer_one_qubit_at_a_time(layer, real_valued) for layer in angles])
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()  # signed zeros too


def phase_diagonal_by_kron(angles):
    """The phase-layer diagonal as it was built before broadcasting: one
    ``np.kron`` per qubit, from qubit t-1 down."""
    diag = np.ones(1, dtype=complex)
    for alpha in angles[::-1]:
        diag = np.kron(diag, np.array([np.exp(-0.5j * alpha), np.exp(0.5j * alpha)]))
    return diag


@settings(max_examples=200, deadline=None)
@given(angles=st.integers(1, 8).flatmap(
    lambda t: hnp.arrays(float, t, elements=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False))
))
def test_phase_layer_diagonal_is_bit_identical_to_kron(angles):
    got = phase_layer_diagonal(PhaseLayerParams(angles))
    expected = phase_diagonal_by_kron(angles)
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()  # signed zeros too


class TestPhaseLayer:
    def test_zero_angles_identity(self):
        block = build_phase_layer(PhaseLayerParams.zeros(2))
        assert np.max(np.abs(block.matrix - np.eye(4))) < 1e-15

    def test_single_qubit_rz(self):
        block = build_phase_layer(PhaseLayerParams([np.pi]))
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.max(np.abs(block.matrix - expected)) < 1e-15

    def test_two_qubit_kronecker_oracle(self):
        rng = np.random.default_rng(2)
        angles = rng.uniform(-np.pi, np.pi, size=2)
        block = build_phase_layer(PhaseLayerParams(angles))
        expected = np.kron(rotation_z(angles[1]), rotation_z(angles[0]))
        assert np.max(np.abs(block.matrix - expected)) < 1e-14

    def test_diagonal_matches_matrix(self):
        params = PhaseLayerParams.random(3, seed=4)
        diag = phase_layer_diagonal(params)
        assert np.max(np.abs(np.diag(diag) - build_phase_layer(params).matrix)) < 1e-14


class TestParameterShift:
    def test_constant_function(self):
        grad = parameter_shift_gradient(lambda v: 3.5, np.zeros(4), 2)
        assert grad == 0.0

    @pytest.mark.parametrize("theta,expected", [(0.0, 0.0), (np.pi / 3, -np.sin(np.pi / 3))])
    def test_z_expectation_after_ry(self, theta, expected):
        def z_expectation(values):
            state = apply_unitary(
                StateVector.zero(1), UnitaryBlock(rotation_y(values[0]), (0,))
            )
            probs = np.abs(state.amplitudes) ** 2
            return float(probs[0] - probs[1])  # cos(theta)

        grad = parameter_shift_gradient(z_expectation, np.array([theta]), 0)
        assert abs(grad - expected) < 1e-12
        fd = central_difference(z_expectation, np.array([theta]), 0)
        assert abs(grad - fd) < 1e-6
