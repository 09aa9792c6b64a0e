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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ansatz import AnsatzParams, PhaseLayerParams, build_ansatz_unitary, build_phase_layer, phase_layer_diagonal
from .classical import causal_attention
from .data import ZERO_NORM_TOL
from .encodings import EncodedToken, amplitude_encode, prepare_input_superposition, unitary_with_first_column
from .errors import ConfigurationError, DegeneratePredictionError
from .objectives import StepProbabilities
from .statevector import (
    HADAMARD,
    OpCounter,
    RegisterLayout,
    StateVector,
    UnitaryBlock,
    all_zeros_expectation,
    apply_controlled_by_register,
    apply_unitary,
    inner_product,
)

EXPECTATION_FLOOR = 1e-30


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


def circuit_state(instance: QsaInstance, counter: OpCounter | None = None) -> StateVector:
    """Run the full circuit by dense simulation and return the final state."""
    lay = instance.layout
    num_steps = lay.num_steps
    psi = prepare_input_superposition(instance.tokens, num_steps, lay, counter)
    v_block = build_ansatz_unitary(instance.params_v).retarget(lay.a_qubits)
    w_block = build_ansatz_unitary(instance.params_w).retarget(lay.b_qubits)
    psi = apply_unitary(psi, v_block, counter)
    psi = apply_unitary(psi, w_block, counter)

    # Controlled inverse encodings: branch j projects register A onto the
    # step-(j+1) target and register B onto the step-j token.
    blocks_a = {}
    blocks_b = {}
    for j in range(1, num_steps + 1):
        target_state = instance.shifted_targets[j - 1].state.amplitudes
        token_state = instance.tokens[j - 1].state.amplitudes
        blocks_a[j - 1] = UnitaryBlock(
            unitary_with_first_column(target_state), lay.a_qubits
        ).dagger()
        blocks_b[j - 1] = UnitaryBlock(
            unitary_with_first_column(token_state), lay.b_qubits
        ).dagger()
    psi = apply_controlled_by_register(psi, lay.c_qubits, blocks_a, counter)
    psi = apply_controlled_by_register(psi, lay.c_qubits, blocks_b, counter)

    phase_block = build_phase_layer(instance.params_r).retarget(lay.c_qubits)
    psi = apply_unitary(psi, phase_block, counter)
    for q in lay.c_qubits:
        psi = apply_unitary(psi, UnitaryBlock(HADAMARD, (q,)), counter)
    return psi


def circuit_expectation(instance: QsaInstance, counter: OpCounter | None = None) -> float:
    """All-zeros projector expectation of the fully simulated circuit."""
    return all_zeros_expectation(circuit_state(instance, counter))


def _overlap_core(tok: np.ndarray, tgt: np.ndarray, v_matrix: np.ndarray, w_matrix: np.ndarray):
    """Branch overlaps a_j and prefix weights M_j for stacked encodings.

    ``tok``: (..., T, d) normalized attention inputs x_1..x_T;
    ``tgt``: (..., T, d) normalized targets for steps 2..T+1.
    """
    z = causal_attention(tok, v_matrix, w_matrix)
    a = np.einsum("...jd,...jd->...j", tgt.conj(), z)
    # <x_i (x) x_i | x_i' (x) x_i'> is the *square* of the complex overlap,
    # so the prefix weights sum squared Gram entries, not squared moduli.
    gram = tok.conj() @ tok.swapaxes(-1, -2)
    prefixes = np.cumsum(np.cumsum(gram * gram, axis=-1), axis=-2)
    weights = np.diagonal(prefixes, axis1=-2, axis2=-1).real
    return a, weights


def batched_expectations(
    token_states: np.ndarray,
    target_states: np.ndarray,
    v_matrix: np.ndarray,
    w_matrix: np.ndarray,
    phase_diagonal: np.ndarray,
) -> np.ndarray:
    """Analytic expectations for a batch of sequences, no full-register state."""
    a, weights = _overlap_core(token_states, target_states, v_matrix, w_matrix)
    num_steps = token_states.shape[-2]
    amp = np.sum(phase_diagonal * a / np.sqrt(weights), axis=-1) / num_steps
    return np.abs(amp) ** 2


def branch_overlaps(instance: QsaInstance) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch overlap amplitudes a_j and prefix weights M_j."""
    num_steps = instance.num_steps
    tok = np.stack([t.state.amplitudes for t in instance.tokens[:num_steps]])
    tgt = np.stack([t.state.amplitudes for t in instance.shifted_targets])
    vm = build_ansatz_unitary(instance.params_v).matrix
    wm = build_ansatz_unitary(instance.params_w).matrix
    return _overlap_core(tok, tgt, vm, wm)


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
    e = max(circuit_expectation(instance), EXPECTATION_FLOOR)
    return -math.log(e) + math.log(instance.num_steps)


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
