from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsalab.ansatz import AnsatzParams, PhaseLayerParams, build_ansatz_unitary, phase_layer_diagonal
from qsalab.encodings import amplitude_encode, entangled_prefix_encoding, reflection_rows
from qsalab import engine
from qsalab.engine import (
    QsaInstance,
    analytic_expectation,
    batched_expectations,
    branch_overlaps,
    circuit_expectation,
    circuit_stages,
    circuit_state,
    dense_expectations,
    predict_token_state,
    qsa_loss,
    score_candidates,
    step_probabilities,
)
from qsalab.errors import ConfigurationError, DegenerateInputError, DegeneratePredictionError
from qsalab.statevector import (
    HADAMARD,
    OpCounter,
    RegisterLayout,
    StateVector,
    UnitaryBlock,
    all_zeros_expectation,
    apply_controlled_by_register,
    apply_unitary,
    reflection_matrix,
)


def random_instance(rng, d=None, num_steps=None, layers=3, complex_tokens=True):
    d = int(rng.choice([2, 4])) if d is None else d
    num_steps = int(rng.choice([2, 4])) if num_steps is None else num_steps
    n = d.bit_length() - 1
    t = num_steps.bit_length() - 1
    shape = (num_steps + 1, d)
    toks = rng.normal(size=shape)
    tgts = rng.normal(size=(num_steps, d))
    if complex_tokens:
        toks = toks + 1j * rng.normal(size=shape)
        tgts = tgts + 1j * rng.normal(size=(num_steps, d))
    return QsaInstance.from_vectors(
        toks,
        tgts,
        AnsatzParams.random(n, layers, rng.integers(1 << 30)),
        AnsatzParams.random(n, layers, rng.integers(1 << 30)),
        PhaseLayerParams.random(t, rng.integers(1 << 30)),
    )


def brute_force_expectation(instance):
    """Independent oracle: explicit kron algebra, no simulator machinery."""
    num_steps = instance.num_steps
    d = instance.tokens.shape[-1]
    tok, tgt = instance.tokens, instance.shifted_targets
    vm = build_ansatz_unitary(instance.params_v).matrix
    wm = build_ansatz_unitary(instance.params_w).matrix
    phases = phase_layer_diagonal(instance.params_r)
    total = 0.0 + 0.0j
    for j in range(1, num_steps + 1):
        raw = np.zeros(d * d, dtype=complex)
        for i in range(j):
            raw += np.kron(tok[i], tok[i])  # (B, A) ordering
        psi_j = raw / np.linalg.norm(raw)
        after = np.kron(wm, vm) @ psi_j
        bra = np.kron(tok[j - 1].conj(), tgt[j - 1].conj())
        total += phases[j - 1] * (bra @ after)
    return float(np.abs(total / num_steps) ** 2)


class TestWorkedExample:
    def setup_method(self):
        self.instance = QsaInstance.from_vectors(
            [[1, 0], [0, 1], [1, 0]],
            [[1, 0], [0, 1]],
            AnsatzParams.zeros(1, 1),
            AnsatzParams.zeros(1, 1),
            PhaseLayerParams.zeros(1),
        )
        # branch amplitudes a_1 = 1, a_2 = 1/sqrt(2) give ((1 + 2^-1/2)/2)^2
        self.expected = ((1 + 2 ** -0.5) / 2) ** 2

    def test_circuit_route(self):
        assert abs(circuit_expectation(self.instance) - self.expected) < 1e-12

    def test_analytic_route(self):
        assert abs(analytic_expectation(self.instance) - self.expected) < 1e-12

    def test_loss_value(self):
        expected_loss = -np.log(self.expected) + np.log(2)
        assert abs(qsa_loss(self.instance) - expected_loss) < 1e-12


class TestDualPathEquality:
    def test_hundred_random_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            instance = random_instance(rng)
            assert abs(circuit_expectation(instance) - analytic_expectation(instance)) < 1e-10

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(200)
        for _ in range(25):
            instance = random_instance(rng)
            oracle = brute_force_expectation(instance)
            assert abs(circuit_expectation(instance) - oracle) < 1e-10

    def test_expectation_in_unit_interval(self):
        rng = np.random.default_rng(300)
        for _ in range(20):
            value = circuit_expectation(random_instance(rng))
            assert -1e-12 <= value <= 1.0 + 1e-12


class TestOrthogonalTargets:
    def test_targets_orthogonal_to_predictions_give_zero(self):
        # with V = W = I and orthonormal tokens, branch j predicts x_j; targets
        # chosen orthogonal to every achievable prediction kill the expectation
        instance = QsaInstance.from_vectors(
            [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
            [[0, 0, 1, 0], [0, 0, 0, 1]],
            AnsatzParams.zeros(2, 0),
            AnsatzParams.zeros(2, 0),
            PhaseLayerParams.zeros(1),
        )
        assert abs(circuit_expectation(instance)) < 1e-12


class TestPhaseAlignment:
    def test_aligned_phases_upper_bound(self):
        # |sum e^{i phi} a_j / sqrt(M)|^2 is maximized when phases align
        rng = np.random.default_rng(31)
        for _ in range(20):
            instance = random_instance(rng)
            a, m = branch_overlaps(instance)
            bound = float(np.sum(np.abs(a) / np.sqrt(m)) / instance.num_steps) ** 2
            assert analytic_expectation(instance) <= bound + 1e-12

    def test_optimizing_phase_layer_never_decreases(self):
        rng = np.random.default_rng(37)
        instance = random_instance(rng, d=4, num_steps=4)
        base = analytic_expectation(instance)
        angles = np.array(instance.params_r.angles)
        best = base
        # coordinate sweep with monotone acceptance
        for _ in range(3):
            for k in range(angles.size):
                candidates = angles[k] + np.linspace(-np.pi, np.pi, 41)
                for value in candidates:
                    trial = angles.copy()
                    trial[k] = value
                    e = analytic_expectation(
                        QsaInstance(
                            instance.tokens,
                            instance.shifted_targets,
                            instance.params_v,
                            instance.params_w,
                            PhaseLayerParams(trial),
                        )
                    )
                    if e > best:
                        best = e
                        angles = trial
        assert best >= base - 1e-12


class TestMonotoneContribution:
    def test_zeroing_a_branch_never_increases(self):
        # positive-entry tokens with V = W = I make every branch amplitude
        # non-negative; replacing one target with an orthogonal vector only
        # removes its contribution
        rng = np.random.default_rng(41)
        for _ in range(10):
            toks = rng.uniform(0.1, 1.0, size=(5, 4))
            tgts = rng.uniform(0.1, 1.0, size=(4, 4))
            v = AnsatzParams.zeros(2, 0)
            w = AnsatzParams.zeros(2, 0)
            r = PhaseLayerParams.zeros(2)
            instance = QsaInstance.from_vectors(toks, tgts, v, w, r)
            base = analytic_expectation(instance)
            for j in range(1, 5):
                state, _ = predict_token_state(instance, j)
                z = state.amplitudes
                ortho = rng.normal(size=4) + 1j * rng.normal(size=4)
                ortho = ortho - (np.vdot(z, ortho)) * z
                new_tgts = list(tgts)
                new_tgts[j - 1] = ortho
                modified = QsaInstance.from_vectors(toks, new_tgts, v, w, r)
                assert analytic_expectation(modified) <= base + 1e-12


class TestStepProbabilities:
    def test_values_and_normalizers(self):
        rng = np.random.default_rng(43)
        instance = random_instance(rng, d=4, num_steps=4)
        probs = step_probabilities(instance)
        a, m = branch_overlaps(instance)
        assert np.max(np.abs(probs.values - np.abs(a) ** 2)) < 1e-12
        assert np.max(np.abs(probs.normalizers - m)) < 1e-12
        assert np.all(probs.ratios() <= 1.0)


class TestQsaLoss:
    def test_loss_floor_and_bound(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            instance = random_instance(rng)
            loss = qsa_loss(instance)
            assert loss >= np.log(instance.num_steps) - 1e-9
            assert np.isfinite(loss)


class TestPredictTokenState:
    def test_orthonormal_tokens_predict_current_token(self):
        instance = QsaInstance.from_vectors(
            np.eye(4)[[0, 1, 2, 3, 0]],
            np.eye(4)[[1, 2, 3, 0]],
            AnsatzParams.zeros(2, 0),
            AnsatzParams.zeros(2, 0),
            PhaseLayerParams.zeros(2),
        )
        for j in range(1, 5):
            state, weight = predict_token_state(instance, j)
            expected = instance.tokens[j - 1]
            assert np.max(np.abs(state.amplitudes - expected)) < 1e-12
            assert abs(weight - 1.0) < 1e-12

    def test_first_step_is_value_rotated_first_token(self):
        rng = np.random.default_rng(53)
        instance = random_instance(rng, d=4, num_steps=4)
        vm = build_ansatz_unitary(instance.params_v).matrix
        state, _ = predict_token_state(instance, 1)
        expected = vm @ instance.tokens[0]
        expected = expected / np.linalg.norm(expected)
        # proportional: the first-step affinity contributes a complex scalar
        assert abs(abs(np.vdot(expected, state.amplitudes)) - 1.0) < 1e-12

    def test_matches_explicit_vector_sum(self):
        rng = np.random.default_rng(59)
        instance = random_instance(rng, d=4, num_steps=4)
        vm = build_ansatz_unitary(instance.params_v).matrix
        wm = build_ansatz_unitary(instance.params_w).matrix
        for j in range(1, 5):
            z = np.zeros(4, dtype=complex)
            xj = instance.tokens[j - 1]
            for i in range(j):
                xi = instance.tokens[i]
                z += (xj.conj() @ wm @ xi) * (vm @ xi)
            state, weight = predict_token_state(instance, j)
            assert abs(weight - np.vdot(z, z).real) < 1e-10
            assert np.max(np.abs(state.amplitudes - z / np.linalg.norm(z))) < 1e-10

    def test_step_out_of_range(self):
        rng = np.random.default_rng(61)
        instance = random_instance(rng, d=2, num_steps=2)
        with pytest.raises(ConfigurationError):
            predict_token_state(instance, 0)
        with pytest.raises(ConfigurationError):
            predict_token_state(instance, 3)

    def test_zero_weight_branch_rejected(self):
        # W maps |x_1> orthogonal to itself: Ry(pi) sends |0> to |1>
        angles = np.zeros((1, 1, 2))
        angles[0, 0, 0] = np.pi
        instance = QsaInstance.from_vectors(
            [[1, 0], [0, 1], [1, 0]],
            [[1, 0], [0, 1]],
            AnsatzParams.zeros(1, 0),
            AnsatzParams(1, 0, angles),
            PhaseLayerParams.zeros(1),
        )
        with pytest.raises(DegeneratePredictionError):
            predict_token_state(instance, 1)


class TestScoreCandidates:
    def test_scores_pick_the_encoded_token(self):
        rng = np.random.default_rng(67)
        instance = QsaInstance.from_vectors(
            np.eye(4)[[0, 1, 2, 3, 0]],
            np.eye(4)[[1, 2, 3, 0]],
            AnsatzParams.zeros(2, 0),
            AnsatzParams.zeros(2, 0),
            PhaseLayerParams.zeros(2),
        )
        state, _ = predict_token_state(instance, 3)
        scores = score_candidates(state, amplitude_encode(np.eye(4), 2))
        assert scores.argmax() == 2

    def test_candidates_of_another_dimension_rejected(self):
        state, _ = predict_token_state(random_instance(np.random.default_rng(67), d=4), 1)
        with pytest.raises(ConfigurationError, match=r"candidate rows \(2, 2\) do not fit 4 amplitudes"):
            score_candidates(state, amplitude_encode(np.eye(2), 1))


class TestOpCounting:
    def test_counter_tracks_dominant_term(self):
        rng = np.random.default_rng(71)
        instance = random_instance(rng, d=4, num_steps=4)
        counter = OpCounter()
        circuit_expectation(instance, counter)
        num_steps, d = 4, 4
        # controlled preparation is T blocks of dimension d^2; the two
        # projection stages add 2T blocks of dimension d
        assert counter.weighted_dim >= num_steps * d * d
        assert counter.blocks >= 3 * num_steps


class TestShiftRuleOnFullExpectation:
    def test_matches_finite_differences_to_1e5(self):
        # the full attention expectation as a function of one circuit angle
        rng = np.random.default_rng(73)
        for _ in range(20):
            instance = random_instance(rng)
            v_flat = np.array(instance.params_v.angles).ravel()
            w_flat = np.array(instance.params_w.angles).ravel()
            r_flat = np.array(instance.params_r.angles)
            block = int(rng.integers(0, 3))
            flat = (v_flat, w_flat, r_flat)[block]
            index = int(rng.integers(0, flat.size))

            def expectation(values, block=block):
                parts = [v_flat, w_flat, r_flat]
                parts[block] = values
                return analytic_expectation(
                    QsaInstance(
                        instance.tokens,
                        instance.shifted_targets,
                        replace(instance.params_v, angles=parts[0].reshape(instance.params_v.angles.shape)),
                        replace(instance.params_w, angles=parts[1].reshape(instance.params_w.angles.shape)),
                        PhaseLayerParams(parts[2]),
                    )
                )

            from qsalab.ansatz import parameter_shift_gradient

            shift = parameter_shift_gradient(expectation, flat, index)
            h = 1e-4
            plus, minus = flat.copy(), flat.copy()
            plus[index] += h
            minus[index] -= h
            fd = (expectation(plus) - expectation(minus)) / (2 * h)
            scale = max(abs(shift), abs(fd), 1e-9)
            assert abs(shift - fd) / scale < 1e-5


class TestRealValuedOption:
    def test_real_tokens_real_restriction_give_real_overlaps(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            toks = rng.normal(size=(5, 4))
            tgts = rng.normal(size=(4, 4))
            v = AnsatzParams.random(2, 3, rng.integers(1 << 30), real_valued=True)
            w = AnsatzParams.random(2, 3, rng.integers(1 << 30), real_valued=True)
            instance = QsaInstance.from_vectors(toks, tgts, v, w, PhaseLayerParams.zeros(2))
            a, weights = branch_overlaps(instance)
            assert np.max(np.abs(a.imag)) < 1e-10
            assert np.all(weights > 0)


def hypothesis_instance(n, t, layers, seed, spread):
    """Random complex tokens and targets with ansatz angles in [-spread, spread]."""
    rng = np.random.default_rng(seed)
    d, num_steps = 2 ** n, 2 ** t
    toks = rng.normal(size=(num_steps + 1, d)) + 1j * rng.normal(size=(num_steps + 1, d))
    tgts = rng.normal(size=(num_steps, d)) + 1j * rng.normal(size=(num_steps, d))
    return QsaInstance.from_vectors(
        toks,
        tgts,
        AnsatzParams.random(n, layers, rng, spread=spread),
        AnsatzParams.random(n, layers, rng, spread=spread),
        PhaseLayerParams.random(t, rng, spread=spread),
    )


instance_shapes = st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda nt: 2 * nt[0] + nt[1] <= 9)


@settings(max_examples=40, deadline=None)
@given(
    shape=instance_shapes,
    layers=st.integers(0, 3),
    seed=st.integers(0, 2 ** 32 - 1),
    spread=st.sampled_from([0.1, 1.0, np.pi]),
)
def test_dual_route_identity_up_to_nine_qubits(shape, layers, seed, spread):
    instance = hypothesis_instance(*shape, layers, seed, spread)
    assert abs(circuit_expectation(instance) - analytic_expectation(instance)) <= 1e-10


# 12-14 qubits: d up to 32, T up to 16.
large_instance_shapes = st.sampled_from([(4, 4), (5, 2), (5, 3), (5, 4)])


# Budget: 12 drawn examples and the 16-qubit one, each held to a 1 s
# deadline, so a passing run takes under 13 s (about 1 s on a 2-vCPU machine).
@settings(max_examples=12, deadline=1000)
@given(
    shape=large_instance_shapes,
    layers=st.integers(0, 3),
    seed=st.integers(0, 2 ** 32 - 1),
    spread=st.sampled_from([0.1, 1.0, np.pi]),
)
@example(shape=(6, 4), layers=2, seed=16, spread=1.0)  # 16 qubits: d=64, T=16
def test_dual_route_identity_twelve_to_sixteen_qubits(shape, layers, seed, spread):
    instance = hypothesis_instance(*shape, layers, seed, spread)
    assert abs(circuit_expectation(instance) - analytic_expectation(instance)) <= 1e-10


# (n, t) -> OpCounter (blocks, weighted_dim) of one circuit_expectation:
# 2t Hadamards, T preparations of dimension d^2, V and W, 2T projections of
# dimension d and the phase layer of dimension T.  Recorded from the dense
# route with matrix-built preparation blocks; the reflections count the same.
RECORDED_COUNTS = {(2, 2): (19, 116), (3, 3): (33, 676), (4, 4): (59, 4672), (5, 4): (59, 17504)}


@pytest.mark.parametrize("shape, counts", RECORDED_COUNTS.items())
def test_op_counter_matches_recorded_counts(shape, counts):
    """The counter reads the blocks that `circuit_stages` declares, and the
    stages come in circuit order."""
    instance = hypothesis_instance(*shape, 2, 7, 1.0)
    counter = OpCounter()
    circuit_expectation(instance, counter)
    assert (counter.blocks, counter.weighted_dim) == counts
    tok, tgt, _, _, diag = arrays = engine._instance_arrays(instance)
    stages = circuit_stages(tok, tgt, *engine._data_blocks(*arrays)[1:], diag)
    assert [stage.name for stage in stages] == [
        "prepare", "v", "w", "unencode_targets", "unencode_tokens", "phase_layer", "hadamards"]


# (n, t) with 6 to 12 qubits in all.
tail_shapes = st.sampled_from([(1, 4), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 2)])


@settings(max_examples=20, deadline=None)
@given(
    shape=tail_shapes,
    layers=st.integers(0, 3),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(shape=(4, 4), layers=2, seed=7)
def test_closed_form_tail_matches_literal_gates(shape, layers, seed):
    """`circuit_expectation` reads register C's phase layer and Hadamards in
    closed form; `circuit_state` applies them as gates.  Both give the same
    expectation."""
    instance = hypothesis_instance(*shape, layers, seed, 1.0)
    value = circuit_expectation(instance)
    assert abs(value - all_zeros_expectation(circuit_state(instance))) <= 1e-12
    assert abs(value - analytic_expectation(instance)) <= 1e-10


def reflection_select(state, lay, columns, targets, adjoint):
    """The C-controlled select of the reflections whose first columns are
    ``columns[j]``, as one dense `UnitaryBlock` per control value."""
    vectors, phases = reflection_rows(columns)
    phases = phases.conj() if adjoint else phases
    blocks = {j: UnitaryBlock(reflection_matrix(vectors[j], phases[j]), targets) for j in range(lay.num_steps)}
    return apply_controlled_by_register(state, lay.c_qubits, blocks)


@settings(max_examples=20, deadline=None)
@given(
    shape=tail_shapes,
    layers=st.integers(0, 2),
    seed=st.integers(0, 2 ** 32 - 1),
)
@example(shape=(4, 4), layers=2, seed=3)
def test_dense_route_matches_gate_by_gate_oracle(shape, layers, seed):
    """An independent rebuild of each instance with the public single-state
    API on qubit indices: t Hadamards and the select of prefix reflections,
    V and W by `apply_unitary`, the two inverse encodings as selects of
    dense reflection blocks, the literal phase layer and Hadamards.  The
    dense route's register axes give the same state and expectation."""
    instance = hypothesis_instance(*shape, layers, seed, 1.0)
    tok, tgt, v_matrix, w_matrix, diag = engine._instance_arrays(instance)
    lay = RegisterLayout.of(*tok.shape[1:])
    hadamards = [UnitaryBlock(HADAMARD, (q,)) for q in lay.c_qubits]
    state = StateVector.zero(lay.num_qubits)
    for block in hadamards:
        state = apply_unitary(state, block)
    prefixes = [entangled_prefix_encoding(instance.tokens, j)[0].amplitudes for j in range(1, lay.num_steps + 1)]
    state = reflection_select(state, lay, prefixes, lay.a_qubits + lay.b_qubits, adjoint=False)
    state = apply_unitary(state, UnitaryBlock(v_matrix, lay.a_qubits))
    state = apply_unitary(state, UnitaryBlock(w_matrix, lay.b_qubits))
    state = reflection_select(state, lay, tgt[0], lay.a_qubits, adjoint=True)
    state = reflection_select(state, lay, tok[0], lay.b_qubits, adjoint=True)
    steps = np.arange(2 ** lay.num_qubits) >> 2 * lay.n
    state = StateVector(lay.num_qubits, diag[steps] * state.amplitudes)
    for block in hadamards:
        state = apply_unitary(state, block)
    assert np.max(np.abs(circuit_state(instance).amplitudes - state.amplitudes)) <= 1e-12
    assert abs(circuit_expectation(instance) - all_zeros_expectation(state)) <= 1e-12


def test_cancelling_prefix_raises_typed_error():
    """Tokens x and i x make the doubled encodings cancel at j=2; the circuit
    route reports it as the package's DegenerateInputError."""
    x = np.array([0.6, 0.8j])
    instance = QsaInstance.from_vectors(
        [x, 1j * x, [1.0, 0.0]],
        [[1.0, 0.0], [0.0, 1.0]],
        AnsatzParams.zeros(1, 1),
        AnsatzParams.zeros(1, 1),
        PhaseLayerParams.zeros(1),
    )
    with pytest.raises(DegenerateInputError, match="interfere to zero norm"):
        circuit_expectation(instance)


@pytest.mark.parametrize("route", [circuit_expectation, analytic_expectation, step_probabilities, branch_overlaps],
                         ids=lambda route: route.__name__)
def test_vanishing_prefix_weight_raises_on_both_routes(route):
    """Tokens x_1 = e_1 and x_2 = i e_1 give S_2 = x_1 x_1^T + x_2 x_2^T = 0,
    so M_2 = 0: the analytic route refuses it as the dense route's state
    preparation does, with the same type and message."""
    instance = QsaInstance.from_vectors(
        [[1.0, 0.0], [1j, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, 1.0]],
        AnsatzParams.zeros(1, 0),
        AnsatzParams.zeros(1, 0),
        PhaseLayerParams.zeros(1),
    )
    with pytest.raises(DegenerateInputError, match="interfere to zero norm"):
        route(instance)


def test_nan_token_raises_typed_error():
    rng = np.random.default_rng(97)
    toks = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    toks[1, 0] = np.nan
    with pytest.raises(DegenerateInputError, match="non-finite"):
        instance = QsaInstance.from_vectors(
            toks, rng.normal(size=(2, 2)), AnsatzParams.zeros(1, 1), AnsatzParams.zeros(1, 1), PhaseLayerParams.zeros(1)
        )
        circuit_expectation(instance)


def build_instance(build, num_tokens, d, maps=None):
    """An instance of ``num_tokens`` random d-dimensional tokens and one target
    fewer, by `QsaInstance.from_vectors` on lists of vectors or by the
    constructor on arrays, with V, W and the phase layer ``maps`` (by default
    on 1 qubit each)."""
    rng = np.random.default_rng(5)
    tokens = rng.normal(size=(num_tokens, d))
    targets = rng.normal(size=(max(num_tokens - 1, 0), d))
    maps = maps or (AnsatzParams.zeros(1, 1), AnsatzParams.zeros(1, 1), PhaseLayerParams.zeros(1))
    if build == "from_vectors":
        return QsaInstance.from_vectors(list(tokens), list(targets), *maps)
    return QsaInstance(tokens, targets, *maps)


@pytest.mark.parametrize("build", ["from_vectors", "constructor"])
@pytest.mark.parametrize("num_tokens, d, match", [
    (0, 2, "step count -1 is not a power of two >= 2"),
    (2, 2, "step count 1 is not a power of two >= 2"),
    (4, 2, "step count 3 is not a power of two >= 2"),
    (3, 1, "token dimension 1 is not a power of two >= 2"),
], ids=["no-tokens", "one-step", "three-steps", "one-dimensional"])
def test_instance_constructors_share_one_register_check(build, num_tokens, d, match):
    """Both constructors read T and d off the tokens by one check: no tokens,
    a step count or a token dimension that is not a power of two >= 2 is a
    ConfigurationError that names it."""
    with pytest.raises(ConfigurationError, match=match):
        build_instance(build, num_tokens, d)


@pytest.mark.parametrize("build", ["from_vectors", "constructor"])
@pytest.mark.parametrize("maps, match", [
    ((AnsatzParams.zeros(3, 1), AnsatzParams.zeros(2, 1), PhaseLayerParams.zeros(2)),
     "qsa V acts on 3 qubits, register A has 2"),
    ((AnsatzParams.zeros(2, 1), AnsatzParams.zeros(1, 1), PhaseLayerParams.zeros(2)),
     "qsa W acts on 1 qubits, register B has 2"),
    ((AnsatzParams.zeros(2, 1), AnsatzParams.zeros(2, 1), PhaseLayerParams.zeros(3)),
     "qsa phase layer acts on 3 qubits, register C has 2"),
], ids=["v", "w", "phase-layer"])
def test_instance_constructors_share_the_qsa_fit_rule(build, maps, match):
    """V, W or a phase layer on the wrong qubit count for T=4 steps of
    d=4 tokens is the trainer's misfit message, from `qsa_registers`."""
    with pytest.raises(ConfigurationError, match=match):
        build_instance(build, 5, 4, maps)


@pytest.mark.parametrize("targets, match", [
    ([[1, 0], [1, 0, 0, 0]], "do not stack"),
    ([[1, 0, 0, 0], [0, 1, 0, 0]], r"tokens \(3, 2\) and shifted targets \(2, 4\) are not \(T\+1, d\) and \(T, d\)"),
    ([[1, 0]], r"tokens \(3, 2\) and shifted targets \(1, 2\) are not"),
], ids=["ragged", "other-dimension", "too-few"])
def test_targets_that_do_not_stack_as_token_rows_rejected(targets, match):
    maps = (AnsatzParams.zeros(1, 1), AnsatzParams.zeros(1, 1), PhaseLayerParams.zeros(1))
    with pytest.raises(ConfigurationError, match=match):
        QsaInstance([[1, 0], [0, 1], [1, 0]], targets, *maps)


def test_scalar_tokens_are_one_one_dimensional_token():
    maps = (AnsatzParams.zeros(1, 1), AnsatzParams.zeros(1, 1), PhaseLayerParams.zeros(1))
    with pytest.raises(ConfigurationError, match="step count 0 is not a power of two"):
        QsaInstance(5.0, [[1, 0]], *maps)


def test_instance_rows_are_read_only_unit_rows():
    """The constructor keeps the amplitude encodings of its vectors as
    read-only (T+1, d) and (T, d) rows, apart from the caller's arrays."""
    tokens, targets = 3.0 * np.eye(2)[[0, 1, 0]], np.array([[0.0, 2.0], [-4.0, 0.0]])
    instance = QsaInstance(tokens, targets, AnsatzParams.zeros(1, 1), AnsatzParams.zeros(1, 1),
                           PhaseLayerParams.zeros(1))
    assert np.array_equal(instance.tokens, np.eye(2)[[0, 1, 0]])
    assert np.array_equal(instance.shifted_targets, [[0.0, 1.0], [-1.0, 0.0]])
    for rows in (instance.tokens, instance.shifted_targets):
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0
    assert tokens[0, 0] == 3.0


def test_twelve_qubit_circuit_builds_no_block_per_control_value():
    """The three register-controlled selects go in as checked Householder
    rows, one kernel call each: the counter reads the recorded block count
    (80 blocks at 12 qubits were once built and checked one per control
    value), and the value matches the analytic route."""
    instance = hypothesis_instance(4, 4, 2, 7, 1.0)
    counter = OpCounter()
    value = circuit_expectation(instance, counter)
    assert counter.blocks == RECORDED_COUNTS[(4, 4)][0]
    assert abs(value - analytic_expectation(instance)) <= 1e-10


def batch_instances(num_seqs, n, t, seed, complex_rows):
    """S instances sharing V, W and the phase layer, from random raw rows,
    and the batched pass's arrays for them."""
    rng = np.random.default_rng(seed)
    d, num_steps = 2 ** n, 2 ** t
    tokens = rng.normal(size=(num_seqs, num_steps + 1, d))
    targets = rng.normal(size=(num_seqs, num_steps, d))
    if complex_rows:
        tokens = tokens + 1j * rng.normal(size=tokens.shape)
        targets = targets + 1j * rng.normal(size=targets.shape)
    maps = (AnsatzParams.random(n, 2, rng, spread=1.0), AnsatzParams.random(n, 2, rng, spread=1.0),
            PhaseLayerParams.random(t, rng, spread=1.0))
    instances = [QsaInstance.from_vectors(tok, tgt, *maps) for tok, tgt in zip(tokens, targets)]
    arrays = (
        np.stack([instance.tokens[:-1] for instance in instances]),
        np.stack([instance.shifted_targets for instance in instances]),
        build_ansatz_unitary(maps[0]).matrix,
        build_ansatz_unitary(maps[1]).matrix,
        phase_layer_diagonal(maps[2]),
    )
    return instances, arrays


# (n, t) with 6 to 9 qubits in all.
batch_shapes = st.sampled_from([(1, 4), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])


@settings(max_examples=30, deadline=None)
@given(
    num_seqs=st.integers(1, 4),
    shape=batch_shapes,
    seed=st.integers(0, 2 ** 32 - 1),
    complex_rows=st.booleans(),
)
def test_dense_pass_rows_match_analytic_batch_and_single_instances(num_seqs, shape, seed, complex_rows):
    """Each row of one batched dense pass equals `batched_expectations` on
    the same arrays, and the `circuit_expectation` of its own instance bit
    for bit, and the batch records S times one instance's blocks."""
    instances, arrays = batch_instances(num_seqs, *shape, seed, complex_rows)
    batch_counter = OpCounter()
    dense = dense_expectations(*arrays, batch_counter)
    analytic, _ = batched_expectations(*arrays)
    assert dense.shape == (num_seqs,)
    assert np.max(np.abs(dense - analytic)) <= 1e-10
    for value, instance in zip(dense, instances):
        counter = OpCounter()
        assert value == circuit_expectation(instance, counter)
    assert (batch_counter.blocks, batch_counter.weighted_dim) == (num_seqs * counter.blocks, num_seqs * counter.weighted_dim)


def test_dense_pass_chunks_keep_the_bits(monkeypatch):
    """Chunks of one sequence give the same bits as one chunk of all (T=8,
    where reading a row out of the batch's (S, T) slice would not), and the
    counter records each chunk's blocks once: the same totals."""
    _, arrays = batch_instances(5, 2, 3, 11, True)
    whole_counter, chunked_counter = OpCounter(), OpCounter()
    whole = dense_expectations(*arrays, whole_counter)
    monkeypatch.setattr(engine, "DENSE_CHUNK_BYTES", 1)
    assert np.array_equal(dense_expectations(*arrays, chunked_counter), whole)
    assert chunked_counter == whole_counter


@pytest.mark.parametrize("bad_seq", [0, 2])
@pytest.mark.parametrize("defect, match", [("cancelling", "interfere to zero norm"),
                                           ("nan-token", "non-finite"), ("nan-target", "non-finite")])
def test_degenerate_sequence_in_a_batch_raises_typed_error(bad_seq, defect, match):
    """One bad sequence anywhere in a batch stops the dense pass with the
    package's DegenerateInputError."""
    _, (tok, tgt, *rest) = batch_instances(3, 1, 1, 13, True)
    tok, tgt = tok.copy(), tgt.copy()
    x = np.array([0.6, 0.8j])
    if defect == "cancelling":  # x and i x: the doubled encodings cancel at j=2
        tok[bad_seq] = [x, 1j * x]
    elif defect == "nan-token":
        tok[bad_seq, 1, 0] = np.nan
    else:
        tgt[bad_seq, 0, 1] = np.nan
    with pytest.raises(DegenerateInputError, match=match):
        dense_expectations(tok, tgt, *rest)


@pytest.mark.parametrize("bad_seq", [0, 2])
@pytest.mark.parametrize("defect, match", [("zero-token", "cannot amplitude-encode a zero vector"),
                                           ("zero-target", "cannot amplitude-encode a zero vector"),
                                           ("scaled-token", "token rows are not unit rows"),
                                           ("scaled-target", "target rows are not unit rows")])
def test_dense_pass_takes_only_unit_rows(bad_seq, defect, match):
    """The inverse encodings read the token and target rows as they are
    handed in, so a zero row, or a finite row off unit norm, stops the dense
    pass with a DegenerateInputError in place of being normalized."""
    _, (tok, tgt, *rest) = batch_instances(3, 1, 1, 13, True)
    tok, tgt = tok.copy(), tgt.copy()
    if defect == "zero-token":  # step 2: step 1's prefix weight stays the same
        tok[bad_seq, 1] = 0.0
    elif defect == "zero-target":
        tgt[bad_seq, 0] = 0.0
    elif defect == "scaled-token":
        tok[bad_seq, 1] *= 1 + 1e-6
    else:
        tgt[bad_seq, 0] *= 1 + 1e-6
    with pytest.raises(DegenerateInputError, match=match):
        dense_expectations(tok, tgt, *rest)


def test_dense_pass_reads_the_trainers_unit_rows():
    """Rows divided by their `np.linalg.norm`, as the trainer hands them in,
    are unit rows to the dense route: it agrees with `batched_expectations`
    on the same arrays to 1e-12."""
    rng = np.random.default_rng(29)
    _, (_, _, *rest) = batch_instances(16, 2, 3, 29, True)
    tok, tgt = (rows / np.linalg.norm(rows, axis=-1, keepdims=True)
                for rows in rng.normal(size=(2, 16, 8, 4)) + 1j * rng.normal(size=(2, 16, 8, 4)))
    assert np.max(np.abs(dense_expectations(tok, tgt, *rest) - batched_expectations(tok, tgt, *rest)[0])) <= 1e-12


def test_dense_pass_checks_shapes_against_the_layout():
    """The registers are read off the (S, T, d) rows: T and d must be
    powers of two, at least 2, the target rows must match the token rows
    and the phase diagonal must have T entries."""
    _, (tok, tgt, vm, wm, diag) = batch_instances(2, 2, 2, 17, True)
    with pytest.raises(ConfigurationError, match="do not match"):
        dense_expectations(tok, tgt[:1], vm, wm, diag)
    with pytest.raises(ConfigurationError, match="step count 3 is not a power of two"):
        dense_expectations(tok[:, :3], tgt[:, :3], vm, wm, diag[:3])
    with pytest.raises(ConfigurationError, match="token dimension 3 is not a power of two"):
        dense_expectations(tok[..., :3], tgt[..., :3], vm, wm, diag)
    with pytest.raises(ConfigurationError, match="phase diagonal"):
        dense_expectations(tok, tgt, vm, wm, diag[:2])
    with pytest.raises(ConfigurationError, match="not unitary"):
        dense_expectations(tok, tgt, 2 * vm, wm, diag)


@settings(max_examples=40, deadline=None)
@given(shape=instance_shapes, seed=st.integers(0, 2 ** 32 - 1))
def test_prefix_encoding_weight_is_branch_weight(shape, seed):
    """M_j from the prefix state's raw norm equals the analytic route's
    Re sum_{i,i'<=j} <x_i|x_i'>^2 for complex tokens."""
    instance = hypothesis_instance(*shape, 1, seed, 1.0)
    _, weights = branch_overlaps(instance)
    for j in range(1, instance.num_steps + 1):
        _, weight = entangled_prefix_encoding(instance.tokens, j)
        assert abs(weight - weights[j - 1]) <= 1e-12 * max(1.0, weight)
