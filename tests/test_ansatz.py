import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsalab.ansatz import (
    AnsatzParams,
    PhaseLayerParams,
    _dagger,
    _qubit_generators,
    _rotation_layers,
    ansatz_vjp,
    build_ansatz_unitary,
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


def cnot_chain_matrix(num_qubits):
    """The dense CNOT chain: CNOT(q -> q+1) for q = 0..n-2, applied in turn."""
    dim = 2 ** num_qubits
    chain = np.eye(dim, dtype=complex)
    for q in range(num_qubits - 1):
        perm = np.zeros((dim, dim), dtype=complex)
        for b in range(dim):
            perm[b ^ (1 << (q + 1)) if (b >> q) & 1 else b, b] = 1.0
        chain = perm @ chain
    return chain


def ansatz_vjp_dense_chain(params):
    """``ansatz_vjp`` as it was built with the dense chain matrix: every layer
    product starts from the identity and multiplies by the chain."""
    n = params.num_qubits
    layers = _rotation_layers(params.angles, params.real_valued)
    chain = cnot_chain_matrix(n)
    before = [np.eye(2 ** n, dtype=complex)]
    for layer in layers[:-1]:
        before.append(chain @ layer @ before[-1])
    matrix = layers[-1] @ before[-1]

    def backward(g_matrix):
        after = [np.eye(2 ** n, dtype=complex)]
        for layer in layers[:0:-1]:
            after.insert(0, after[0] @ layer @ chain)
        prefix, suffix = np.stack(before), np.stack(after)
        grad = np.zeros(params.angles.shape)
        x_ry = _dagger(suffix) @ g_matrix @ _dagger(layers @ prefix)
        grad[..., 0] = np.einsum("lab,qab->lq", x_ry.conj(), _qubit_generators("y", n)).real
        if not params.real_valued:
            x_rz = _dagger(suffix @ layers) @ g_matrix @ _dagger(prefix)
            grad[..., 1] = np.einsum("lab,qab->lq", x_rz.conj(), _qubit_generators("z", n)).real
        return grad

    return matrix, backward


@st.composite
def ansatz_case(draw):
    """Params on n = 1..5 qubits with L = 0..6 layers, with all, some or no
    angles exactly zero, and a complex matrix cotangent."""
    num_qubits, num_layers = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    angles = rng.uniform(-np.pi, np.pi, size=(num_layers + 1, num_qubits, 2))
    angles[rng.random(angles.shape) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    dim = 2 ** num_qubits
    g_matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return AnsatzParams(num_qubits, num_layers, angles, draw(st.booleans())), g_matrix


@settings(max_examples=200, deadline=None)
@given(ansatz_case())
def test_ansatz_vjp_matches_dense_chain(case):
    params, g_matrix = case
    matrices, backward = ansatz_vjp(params)
    expected_matrix, expected_backward = ansatz_vjp_dense_chain(params)
    assert matrices.shape == (1,) + expected_matrix.shape
    assert np.array_equal(matrices[0], expected_matrix)
    # bytes may differ only in the sign of an exact zero
    got, expected = matrices[0].view(float), expected_matrix.view(float)
    assert np.all((np.signbit(got) == np.signbit(expected)) | (got == 0.0))
    (grad,) = backward(g_matrix[None])
    assert grad.tobytes() == expected_backward(g_matrix).tobytes()


@st.composite
def ansatz_pair(draw):
    """Two params on one qubit count n = 1..5, each with L = 0..5 layers
    and either flag; the second is often of the first's depth and flag, and
    otherwise drawn on its own.  Angles are all, some or no exact zeros, and
    the two matrix cotangents are complex."""
    num_qubits = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zero_share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    shapes = [(draw(st.integers(0, 5)), draw(st.booleans()))]
    shapes.append(shapes[0] if draw(st.booleans()) else (draw(st.integers(0, 5)), draw(st.booleans())))
    pair = []
    for num_layers, real_valued in shapes:
        angles = rng.uniform(-np.pi, np.pi, size=(num_layers + 1, num_qubits, 2))
        angles[rng.random(angles.shape) < zero_share] = 0.0
        pair.append(AnsatzParams(num_qubits, num_layers, angles, real_valued))
    dim = 2 ** num_qubits
    g_matrices = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
    return pair, g_matrices


@settings(max_examples=200, deadline=None)
@given(ansatz_pair())
def test_stacked_ansatz_vjp_keeps_each_members_bits(case):
    """``ansatz_vjp(v, w)`` gives each member's matrix and angle gradient
    byte for byte as building that member alone does."""
    pair, g_matrices = case
    matrices, backward = ansatz_vjp(*pair)
    grads = backward(g_matrices)
    assert matrices.shape == (2,) + g_matrices.shape[1:] and len(grads) == 2
    for params, matrix, g_matrix, grad in zip(pair, matrices, g_matrices, grads):
        alone, alone_backward = ansatz_vjp(params)
        assert matrix.tobytes() == alone[0].tobytes()
        assert grad.shape == params.angles.shape
        assert grad.tobytes() == alone_backward(g_matrix[None])[0].tobytes()


def test_stacked_ansatz_vjp_rejects_mixed_qubit_counts():
    with pytest.raises(ConfigurationError):
        ansatz_vjp(AnsatzParams.zeros(1, 1), AnsatzParams.zeros(2, 1))


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
        matrix = np.diag(phase_layer_diagonal(PhaseLayerParams.zeros(2)))
        assert np.max(np.abs(matrix - np.eye(4))) < 1e-15

    def test_single_qubit_rz(self):
        matrix = np.diag(phase_layer_diagonal(PhaseLayerParams([np.pi])))
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.max(np.abs(matrix - expected)) < 1e-15

    def test_two_qubit_kronecker_oracle(self):
        rng = np.random.default_rng(2)
        angles = rng.uniform(-np.pi, np.pi, size=2)
        matrix = np.diag(phase_layer_diagonal(PhaseLayerParams(angles)))
        expected = np.kron(rotation_z(angles[1]), rotation_z(angles[0]))
        assert np.max(np.abs(matrix - expected)) < 1e-14

    def test_three_qubit_kronecker_oracle(self):
        params = PhaseLayerParams.random(3, seed=4)
        angles = params.angles
        matrix = np.diag(phase_layer_diagonal(params))
        expected = np.kron(np.kron(rotation_z(angles[2]), rotation_z(angles[1])), rotation_z(angles[0]))
        assert np.max(np.abs(matrix - expected)) < 1e-14


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
