"""Attention by overlap interference.

Assembles the full-register circuit (input superposition, variational
layers on the data registers, register-controlled projections, phase layer
and Hadamards on the step register) and evaluates the all-zeros expectation
two independent ways: by dense simulation and by an analytic branch-overlap
formula.  Also exposes the interference loss and the prediction read-out.

Exact bookkeeping of the branch amplitudes: with normalized token encodings
x_1..x_T, targets xt_2..xt_{T+1}, prefix weights M_j and phase-layer branch
factors e^{i phi_j},

    expectation = | (1/T) sum_j e^{i phi_j} a_j / sqrt(M_j) |^2,
    a_j = sum_{i<=j} <xt_{j+1}|V|x_i> <x_j|W|x_i>.

One 1/sqrt(T) comes from the input superposition and a second from the
final Hadamard projection onto the all-zeros string.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ansatz import AnsatzParams, PhaseLayerParams, ansatz_vjp, build_ansatz_unitary, phase_layer_diagonal
from .classical import causal_attention_vjp
from .data import ZERO_NORM_TOL
from .encodings import EncodedToken, amplitude_encode, prepared_states, reflection_rows
from .errors import ConfigurationError, DegeneratePredictionError
from .objectives import StepProbabilities, renyi_half_from_expectation
from .statevector import (
    HADAMARD,
    OpCounter,
    RegisterLayout,
    StateVector,
    UnitaryBlock,
    _apply_block,
    _reflection_select,
    inner_product,
)

# The dense route cuts its sequence axis into chunks whose working arrays
# stay within DENSE_CHUNK_BYTES, at least one sequence each.  A stage holds
# at most _STATE_COPIES state-sized arrays at once (16 bytes an amplitude):
# the batch, its transposed copy and the kernel's output or the copy moved
# back; in the preparation, the prefix rows and their Householder vectors.
DENSE_CHUNK_BYTES = 1 << 22
_STATE_COPIES = 4


@dataclass(frozen=True)
class QsaInstance:
    """One sequence bound to circuit parameters.

    ``tokens`` are the T+1 attention inputs (positional shifts included);
    ``shifted_targets`` are the T shift-free targets for steps 2..T+1.
    """

    tokens: tuple
    shifted_targets: tuple
    layout: RegisterLayout
    params_v: AnsatzParams
    params_w: AnsatzParams
    params_r: PhaseLayerParams

    def __post_init__(self):
        tokens = tuple(self.tokens)
        targets = tuple(self.shifted_targets)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "shifted_targets", targets)
        lay = self.layout
        if len(tokens) != lay.num_steps + 1:
            raise ConfigurationError(
                f"expected {lay.num_steps + 1} tokens, got {len(tokens)}"
            )
        if len(targets) != lay.num_steps:
            raise ConfigurationError(
                f"expected {lay.num_steps} shifted targets, got {len(targets)}"
            )
        for tok in tokens + targets:
            if tok.state.num_qubits != lay.n:
                raise ConfigurationError("token states must live on register A's qubit count")
        if self.params_v.num_qubits != lay.n or self.params_w.num_qubits != lay.n:
            raise ConfigurationError("ansatz qubit counts must match the data registers")
        if self.params_r.num_qubits != lay.t:
            raise ConfigurationError("phase layer size must match the step register")

    @property
    def num_steps(self) -> int:
        return self.layout.num_steps

    def unit_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(T, d) encoded tokens x_1..x_T and targets for steps 2..T+1."""
        tok = np.stack([t.state.amplitudes for t in self.tokens[:self.num_steps]])
        tgt = np.stack([t.state.amplitudes for t in self.shifted_targets])
        return tok, tgt

    @staticmethod
    def from_vectors(
        token_vectors,
        target_vectors,
        params_v: AnsatzParams,
        params_w: AnsatzParams,
        params_r: PhaseLayerParams,
    ) -> "QsaInstance":
        """Encode raw d-vectors (T+1 tokens, T targets) and build the instance."""
        token_vectors = [np.asarray(v) for v in token_vectors]
        target_vectors = [np.asarray(v) for v in target_vectors]
        d = token_vectors[0].size
        n = int(d).bit_length() - 1
        if 2 ** n != d:
            raise ConfigurationError(f"token dimension {d} is not a power of two")
        num_steps = len(token_vectors) - 1
        t = int(num_steps).bit_length() - 1
        if num_steps < 2 or 2 ** t != num_steps:
            raise ConfigurationError(f"step count {num_steps} is not a power of two >= 2")
        layout = RegisterLayout.standard(n, t)
        tokens = tuple(amplitude_encode(v, n) for v in token_vectors)
        targets = tuple(amplitude_encode(v, n) for v in target_vectors)
        return QsaInstance(tokens, targets, layout, params_v, params_w, params_r)


def _data_stage(
    token_states: np.ndarray,
    target_states: np.ndarray,
    v_block: UnitaryBlock,
    w_block: UnitaryBlock,
    layout: RegisterLayout,
    counter: OpCounter | None,
) -> np.ndarray:
    """The circuit of each of S sequences up to register C's phase layer, as
    one (S, 2**q) batch: the input superpositions, V on A and W on B, and the
    two controlled inverse encodings."""
    psi = prepared_states(token_states, layout, counter)
    psi = _apply_block(psi, v_block, counter)
    psi = _apply_block(psi, w_block, counter)
    # Controlled inverse encodings: branch j projects register A onto the
    # step-(j+1) target and register B onto the step-j token.  Both sets
    # of rows come from one Householder step and one check; each inverse
    # conjugates the phases.
    vectors, phases = reflection_rows(np.stack((target_states, token_states)))
    psi = _reflection_select(psi, layout.c_qubits, layout.a_qubits, vectors[0], phases[0].conj(), counter)
    return _reflection_select(psi, layout.c_qubits, layout.b_qubits, vectors[1], phases[1].conj(), counter)


def _data_blocks(token_states, target_states, v_matrix, w_matrix, layout: RegisterLayout):
    """Check the batch's shapes against ``layout`` and build V on register A
    and W on register B, one unitarity check each."""
    shape = (layout.num_steps, layout.token_dim)
    if token_states.ndim != 3 or token_states.shape[1:] != shape or target_states.shape != token_states.shape:
        raise ConfigurationError(
            f"token rows {token_states.shape} and target rows {target_states.shape} "
            f"do not match (S, {shape[0]}, {shape[1]}) for this layout"
        )
    return UnitaryBlock(v_matrix, layout.a_qubits), UnitaryBlock(w_matrix, layout.b_qubits)


def dense_expectations(
    token_states: np.ndarray,
    target_states: np.ndarray,
    v_matrix: np.ndarray,
    w_matrix: np.ndarray,
    phase_diagonal: np.ndarray,
    layout: RegisterLayout,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """All-zeros expectations of S sequences' full circuits by dense simulation:
    the circuit route's counterpart of `batched_expectations`, on the same
    (S, T, d) unit token and target rows, V and W matrices and phase diagonal.

    V and W are checked once per call, and each select's reflections once
    per chunk.  The S circuits run as one (S, 2**q) batch, in chunks of
    sequences sized by ``DENSE_CHUNK_BYTES``.  The data stage is simulated
    gate by gate; register C's closing phase layer and Hadamards are read
    in closed form.  <0|H^t = T^{-1/2} sum_c <c|, so only the slice with
    A = B = 0 counts: the expectation is |sum_c e^{i phi_c} psi_c|^2 / T,
    one dot product and one scalar ``abs`` per sequence, the bits of one
    sequence at a time.  ``counter`` records each sequence's
    phase layer and t Hadamards as the blocks they stand for.
    """
    v_block, w_block = _data_blocks(token_states, target_states, v_matrix, w_matrix, layout)
    num_seqs, num_steps = token_states.shape[:2]
    if phase_diagonal.shape != (num_steps,):
        raise ConfigurationError(f"phase diagonal of shape {phase_diagonal.shape} for {num_steps} steps")
    chunk = max(1, DENSE_CHUNK_BYTES // (_STATE_COPIES * 16 * 2 ** layout.num_qubits))
    steps = layout.step_indices()
    values = np.empty(num_seqs)
    for start in range(0, num_seqs, chunk):
        rows = slice(start, start + chunk)
        # One sequence at a time, as a fresh 1-D slice and a scalar abs: a
        # view into the batch or np.abs over it can change the last bit.
        # The chunk's states are freed before the next chunk starts.
        values[rows] = [
            abs(phase_diagonal @ state[steps]) ** 2 / num_steps
            for state in _data_stage(token_states[rows], target_states[rows], v_block, w_block, layout, counter)
        ]
    if counter is not None:
        counter.record(num_steps, num_seqs)
        counter.record(2, layout.t * num_seqs)
    return values


def _instance_arrays(instance: QsaInstance) -> tuple:
    """One instance as a batch of one: its (1, T, d) token and target rows and
    the V and W matrices."""
    tok, tgt = instance.unit_rows()
    return tok[None], tgt[None], ansatz_vjp(instance.params_v)[0], ansatz_vjp(instance.params_w)[0]


def circuit_state(instance: QsaInstance, counter: OpCounter | None = None) -> StateVector:
    """Run the full circuit by dense simulation and return the final state:
    the data stage of `dense_expectations`, then the phase layer and
    Hadamards on C as gates."""
    lay = instance.layout
    tok, tgt, v_matrix, w_matrix = _instance_arrays(instance)
    psi = _data_stage(tok, tgt, *_data_blocks(tok, tgt, v_matrix, w_matrix, lay), lay, counter)
    psi = _apply_block(psi, UnitaryBlock(np.diag(phase_layer_diagonal(instance.params_r)), lay.c_qubits), counter)
    for q in lay.c_qubits:
        psi = _apply_block(psi, UnitaryBlock(HADAMARD, (q,)), counter)
    return StateVector(lay.num_qubits, psi[0])


def circuit_expectation(instance: QsaInstance, counter: OpCounter | None = None) -> float:
    """All-zeros projector expectation of the fully simulated circuit:
    `dense_expectations` of this one sequence."""
    arrays = _instance_arrays(instance)
    return float(dense_expectations(*arrays, phase_layer_diagonal(instance.params_r), instance.layout, counter)[0])


def _branch_overlaps_vjp(tok: np.ndarray, tgt: np.ndarray, v_matrix: np.ndarray, w_matrix: np.ndarray):
    """Branch overlaps a_j = <tgt_j|z_j> and the kernel's prefix weights M_j
    for (..., T, d) normalized inputs x_1..x_T and targets for steps
    2..T+1; ``backward(g_a, g_weights)`` gives (g_tok, g_tgt, g_v, g_w)."""
    z, weights, attention_backward = causal_attention_vjp(tok, v_matrix, w_matrix, prefix_weights=True)
    a = np.einsum("...jd,...jd->...j", tgt.conj(), z)

    def backward(g_a, g_weights):
        g_tok, g_v, g_w = attention_backward(g_a[..., None] * tgt, g_weights)
        return g_tok, g_a.conj()[..., None] * z, g_v, g_w

    return a, weights, backward


def batched_expectations(
    token_states: np.ndarray,
    target_states: np.ndarray,
    v_matrix: np.ndarray,
    w_matrix: np.ndarray,
    phase_diagonal: np.ndarray,
):
    """Analytic expectations for a batch of sequences, no full-register
    state, and their backward pass.

    Returns (expectations, backward); ``backward(g_expectations)`` gives
    (g_token_states, g_target_states, g_v_matrix, g_w_matrix,
    g_phase_diagonal), complex gradients as dL/dRe + i dL/dIm and the batch
    summed into the shared arrays.
    """
    a, weights, core_backward = _branch_overlaps_vjp(token_states, target_states, v_matrix, w_matrix)
    num_steps = token_states.shape[-2]
    root = np.sqrt(weights)
    terms = phase_diagonal * a / root
    amp = np.sum(terms, axis=-1) / num_steps

    def backward(g_expectations):
        g_amp = (2.0 * g_expectations * amp / num_steps)[..., None]
        g_a = g_amp * phase_diagonal.conj() / root
        g_phase = np.sum(g_amp * (a / root).conj(), axis=tuple(range(a.ndim - 1)))
        g_weights = -0.5 * (g_amp.conj() * terms).real / weights
        return (*core_backward(g_a, g_weights), g_phase)

    return np.abs(amp) ** 2, backward


def branch_overlaps(instance: QsaInstance) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch overlap amplitudes a_j and prefix weights M_j."""
    tok, tgt = instance.unit_rows()
    vm = build_ansatz_unitary(instance.params_v).matrix
    wm = build_ansatz_unitary(instance.params_w).matrix
    return _branch_overlaps_vjp(tok, tgt, vm, wm)[:2]


def analytic_expectation(instance: QsaInstance) -> float:
    """Expectation from the branch-overlap formula; equals circuit_expectation."""
    a, weights = branch_overlaps(instance)
    phases = phase_layer_diagonal(instance.params_r)
    amp = np.sum(phases * a / np.sqrt(weights)) / instance.num_steps
    return float(np.abs(amp) ** 2)


def step_probabilities(instance: QsaInstance) -> StepProbabilities:
    """Branch probabilities |a_j|^2 with their circuit normalizers M_j."""
    a, weights = branch_overlaps(instance)
    return StepProbabilities(np.abs(a) ** 2, weights)


def qsa_loss(instance: QsaInstance) -> float:
    """-log(expectation) + log T, floored so early training stays finite."""
    return renyi_half_from_expectation(circuit_expectation(instance), instance.num_steps)


def predict_token_state(instance: QsaInstance, step: int) -> tuple[StateVector, float]:
    """Normalized prediction for step+1 and its squared-norm weight.

    The state is proportional to sum_{i<=step} <x_step|W|x_i> V|x_i>, the
    register-A content after projecting register B at inference time.
    """
    if not 1 <= step <= instance.num_steps:
        raise ConfigurationError(f"step {step} outside 1..{instance.num_steps}")
    tok = np.stack([t.state.amplitudes for t in instance.tokens[:step]])
    vm = build_ansatz_unitary(instance.params_v).matrix
    wm = build_ansatz_unitary(instance.params_w).matrix
    coeff = instance.tokens[step - 1].state.amplitudes.conj() @ (wm @ tok.T)
    z = (vm @ tok.T) @ coeff
    weight = float(np.vdot(z, z).real)
    if weight <= ZERO_NORM_TOL ** 2:
        raise DegeneratePredictionError(f"prediction branch {step} has zero amplitude")
    n = instance.layout.n
    return StateVector(n, z / np.sqrt(weight)), weight


def score_candidates(state: StateVector, candidates: Sequence[EncodedToken]) -> np.ndarray:
    """Squared overlaps of a predicted state with candidate token encodings."""
    return np.array(
        [abs(inner_product(c.state, state)) ** 2 for c in candidates], dtype=float
    )
