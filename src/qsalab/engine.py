"""Attention by overlap interference.

Lists the full-register circuit once, as the stages of `circuit_stages`
(input superposition, variational layers on the data registers,
register-controlled projections, phase layer and Hadamards on the step
register), and evaluates the all-zeros expectation two independent ways:
by dense simulation and by an analytic branch-overlap formula.  Also
exposes the interference loss and the prediction read-out.  No function
takes a register placement: the registers sit where `RegisterLayout`
puts them, n and t read off the (S, T, d) shape of the token rows, and
`qsa_registers` is the one rule that V, W and the phase layer fit them.
The dense route holds S circuits' states as one (S, T, d, d) array with
axes (sequence, C, B, A), and each stage acts on its register's axis.

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
from functools import partial, reduce
from typing import Callable, NamedTuple

import numpy as np

from .ansatz import AnsatzParams, PhaseLayerParams, ansatz_vjp, phase_layer_vjp
from .classical import causal_attention_vjp
from .data import ZERO_NORM_TOL, check_int_range, freeze
from .encodings import _check_prefix_weights, _householder_rows, _stacked_rows, amplitude_encode, prepared_states
from .errors import ConfigurationError, DegenerateInputError, DegeneratePredictionError
from .objectives import StepProbabilities, renyi_half_from_expectation
from .statevector import HADAMARD, UNITARY_ATOL, OpCounter, RegisterLayout, StateVector, _check_unitaries, _reflect

# The dense route cuts its sequence axis into chunks whose working arrays
# stay within DENSE_CHUNK_BYTES, at least one sequence each.  A stage holds
# at most _STATE_COPIES state-sized arrays at once (16 bytes an amplitude):
# the batch, its transposed copy and the product; in the preparation, the
# prefix rows, their unit rows and their Householder vectors.
DENSE_CHUNK_BYTES = 1 << 22
_STATE_COPIES = 4


@dataclass(frozen=True)
class QsaInstance:
    """One sequence bound to circuit parameters.

    ``tokens`` are the T+1 attention inputs (positional shifts included);
    ``shifted_targets`` are the T shift-free targets for steps 2..T+1.  The
    constructor takes any vectors that stack as (T+1, d) and (T, d) rows,
    checks them and V, W and the phase layer by `qsa_registers`, and keeps
    their amplitude encodings as read-only unit rows.
    """

    tokens: np.ndarray
    shifted_targets: np.ndarray
    params_v: AnsatzParams
    params_w: AnsatzParams
    params_r: PhaseLayerParams

    def __post_init__(self):
        tokens, targets = _stacked_rows(self.tokens), _stacked_rows(self.shifted_targets)
        lay = qsa_registers(len(tokens) - 1, tokens.shape[-1], self.params_v, self.params_w, self.params_r)
        if tokens.ndim != 2 or targets.shape != (lay.num_steps, lay.token_dim):
            raise ConfigurationError(
                f"tokens {tokens.shape} and shifted targets {targets.shape} are not (T+1, d) and (T, d) rows")
        freeze(self, tokens=amplitude_encode(tokens, lay.n), shifted_targets=amplitude_encode(targets, lay.n))

    @property
    def num_steps(self) -> int:
        return len(self.tokens) - 1

    @classmethod
    def from_vectors(cls, *args, **kwargs) -> "QsaInstance":
        """The constructor, by its older name."""
        return cls(*args, **kwargs)


def qsa_registers(
    num_steps: int,
    token_dim: int,
    params_v: AnsatzParams,
    params_w: AnsatzParams,
    params_r: PhaseLayerParams,
) -> RegisterLayout:
    """The registers of T steps of d-dimensional tokens, once V and W are
    checked to act on register A's and B's n qubits and the phase layer on
    register C's t: the one qsa fit rule, of instances and of the trainer.
    Each misfit is a ConfigurationError naming the array and both counts."""
    lay = RegisterLayout.of(num_steps, token_dim)
    for name, params, register, qubits in (("V", params_v, "A", lay.n), ("W", params_w, "B", lay.n),
                                           ("phase layer", params_r, "C", lay.t)):
        if params.num_qubits != qubits:
            raise ConfigurationError(
                f"qsa {name} acts on {params.num_qubits} qubits, register {register} has {qubits}"
            )
    return lay


class Stage(NamedTuple):
    """One stage of the dense circuit: ``apply`` maps the (S, T, d, d) batch
    of S sequences, axes (sequence, C, B, A), to the next (the first stage
    ignores its input and writes the batch), and ``blocks`` lists the
    (dimension, count per sequence) of the blocks it stands for."""

    name: str
    apply: Callable
    blocks: tuple


def _on_axis(matrix: np.ndarray, psi: np.ndarray, axis: int) -> np.ndarray:
    """``matrix`` on one axis of the batch ``psi``: one product with that axis
    leading and the others, in their order, flattened behind it (a view where
    they merge, else one copy), returned as a view in ``psi``'s axis order."""
    rest = tuple(a for a in range(psi.ndim) if a != axis)
    x = psi.transpose((axis,) + rest)
    out = (matrix @ x.reshape(len(matrix), -1)).reshape(x.shape)
    return out.transpose(tuple(range(1, axis + 1)) + (0,) + rest[axis:])


def circuit_stages(token_states, target_states, v_matrix, w_matrix, phase_diagonal) -> tuple:
    """The full circuit of S sequences as its stages in circuit order, from
    their (S, T, d) unit token and target rows, the checked V and W matrices
    and the phase diagonal: the input superpositions, V on A and W on B, the
    two controlled inverse encodings, then register C's phase layer and t
    Hadamards.  Each stage acts on its register's axis of the (S, T, d, d)
    batch."""
    lay = RegisterLayout.of(*token_states.shape[-2:])
    d, t, num_steps = lay.token_dim, lay.t, lay.num_steps
    # Controlled inverse encodings: branch j projects register A onto the
    # step-(j+1) target and register B onto the step-j token.  Both sets
    # of rows are checked as unit rows and go through one Householder step
    # and one check, made when the first of them runs; each inverse
    # conjugates the phases.  A is the batch's last axis, so its
    # reflections act on the transposed view.
    rows = []

    def unencode(part):
        def apply(psi):
            if not rows:
                rows.extend(_householder_rows(_unit_rows(target_states, token_states)))
            vectors, phases = rows[0][part], rows[1][part].conj()
            return _reflect(vectors, phases, psi) if part else _reflect(vectors, phases, psi.mT).mT
        return apply

    def hadamards(psi):
        for k in range(t):  # step qubit k is bit k of the step index
            psi = _on_axis(HADAMARD, psi.reshape(-1, 2, 2 ** k * d * d), 1)
        return psi.reshape(-1, num_steps, d, d)

    return (
        Stage("prepare", lambda _: prepared_states(token_states), ((2, t), (d * d, num_steps))),
        Stage("v", partial(_on_axis, v_matrix, axis=3), ((d, 1),)),
        Stage("w", partial(_on_axis, w_matrix, axis=2), ((d, 1),)),
        Stage("unencode_targets", unencode(0), ((d, num_steps),)),
        Stage("unencode_tokens", unencode(1), ((d, num_steps),)),
        Stage("phase_layer", lambda psi: psi * phase_diagonal[:, None, None], ((num_steps, 1),)),
        Stage("hadamards", hadamards, ((2, t),)),
    )


def _unit_rows(target_states, token_states) -> np.ndarray:
    """The (2, S, T, d) stack of target and token rows, once each is checked
    to be a unit row: its squared norm within `UNITARY_ATOL` of 1.  A
    non-finite or zero row gets `amplitude_encode`'s error; any other row
    off unit norm is a DegenerateInputError naming its rows, since the
    inverse encodings do not normalize it."""
    rows = np.array((target_states, token_states))
    squared = np.vecdot(rows, rows).real
    defect = np.abs(squared - 1.0)
    if not defect.max() <= UNITARY_ATOL:  # NaN fails
        amplitude_encode(rows, None)  # raises on a non-finite or zero row
        part, seq, step = np.argwhere(defect > UNITARY_ATOL)[0]
        raise DegenerateInputError(
            f"{('target', 'token')[part]} rows are not unit rows: sequence {seq}, step {step} "
            f"has a squared norm off 1 by {defect[part, seq, step]:.3e}")
    return rows


def _fold(stages) -> np.ndarray:
    """The batch that ``stages`` write, each stage applied to the last one's output."""
    return reduce(lambda psi, stage: stage.apply(psi), stages, None)


def _data_blocks(token_states, target_states, v_matrix, w_matrix, phase_diagonal):
    """The batch's registers, read off its (S, T, d) rows once their shapes
    check, and V and W, checked as one stack of unitaries on n qubits."""
    if token_states.ndim != 3 or target_states.shape != token_states.shape:
        raise ConfigurationError(
            f"token rows {token_states.shape} and target rows {target_states.shape} do not match as (S, T, d) rows"
        )
    lay = RegisterLayout.of(*token_states.shape[1:])
    if phase_diagonal.shape != (lay.num_steps,):
        raise ConfigurationError(f"phase diagonal of shape {phase_diagonal.shape} for {lay.num_steps} steps")
    return (lay, *_check_unitaries(lay.n, v_matrix, w_matrix))


def dense_expectations(
    token_states: np.ndarray,
    target_states: np.ndarray,
    v_matrix: np.ndarray,
    w_matrix: np.ndarray,
    phase_diagonal: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """All-zeros expectations of S sequences' full circuits by dense simulation:
    the circuit route's counterpart of `batched_expectations`, on the same
    (S, T, d) unit token and target rows, V and W matrices and phase diagonal.

    The rows are read as they are, not normalized again, so both routes
    read the same rows: each must be a unit row to `UNITARY_ATOL`, checked
    once per chunk.

    V and W are checked once per call, and each select's reflections once
    per chunk.  The S circuits run as one (S, T, d, d) batch, in chunks of
    sequences sized by ``DENSE_CHUNK_BYTES``.  Each chunk folds the stages
    of `circuit_stages` up to register C's phase layer; the phase layer and
    Hadamards are read in closed form.  <0|H^t = T^{-1/2} sum_c <c|, so only
    the slice with A = B = 0 counts: the expectation is
    |sum_c e^{i phi_c} psi_c|^2 / T, one dot product and one scalar ``abs``
    per sequence, the bits of one sequence at a time.  ``counter`` records
    every stage's declared blocks, once per chunk.
    """
    lay, *matrices = _data_blocks(token_states, target_states, v_matrix, w_matrix, phase_diagonal)
    num_seqs, num_steps = token_states.shape[:2]
    chunk = max(1, DENSE_CHUNK_BYTES // (_STATE_COPIES * 16 * 2 ** lay.num_qubits))
    values = np.empty(num_seqs)
    for start in range(0, num_seqs, chunk):
        tok, tgt = token_states[start:start + chunk], target_states[start:start + chunk]
        stages = circuit_stages(tok, tgt, *matrices, phase_diagonal)
        # The stages up to the phase layer, then one sequence at a time, as
        # a fresh 1-D copy of its A = B = 0 slice and a scalar abs: a view
        # into the batch or np.abs over it can change the last bit.  The
        # chunk's states are freed before the next chunk starts.
        values[start:start + len(tok)] = [
            abs(phase_diagonal @ state[:, 0, 0].copy()) ** 2 / num_steps for state in _fold(stages[:-2])
        ]
        if counter is not None:
            for stage in stages:
                for dim, count in stage.blocks:
                    counter.record(dim, count * len(tok))
    return values


def qsa_arrays(tok, tgt, params_v: AnsatzParams, params_w: AnsatzParams, params_r: PhaseLayerParams):
    """What every qsa evaluation starts from, on either route: ((tok, tgt, v_matrix,
    w_matrix, phase_diagonal), backward), with the unit rows passed through, V and W
    from one stacked `ansatz_vjp` pass and the phase diagonal from one `phase_layer_vjp`;
    ``backward(g_v, g_w, g_phase)`` gives the angle gradients of V, W and the phase layer."""
    (v_matrix, w_matrix), vw_backward = ansatz_vjp(params_v, params_w)
    phase_diagonal, phase_backward = phase_layer_vjp(params_r)

    def backward(g_v, g_w, g_phase):
        return (*vw_backward((g_v, g_w)), phase_backward(g_phase))

    return (tok, tgt, v_matrix, w_matrix, phase_diagonal), backward


def _instance_arrays(instance: QsaInstance) -> tuple:
    """One instance as a batch of one: `qsa_arrays` of its (1, T, d) token and target rows."""
    tok, tgt = instance.tokens[None, :-1], instance.shifted_targets[None]
    return qsa_arrays(tok, tgt, instance.params_v, instance.params_w, instance.params_r)[0]


def circuit_state(instance: QsaInstance) -> StateVector:
    """Run the full circuit by dense simulation and return the final state:
    every stage of `circuit_stages`, the phase layer and the Hadamards as
    gates on the step axis."""
    tok, tgt, _, _, phases = arrays = _instance_arrays(instance)
    lay, *matrices = _data_blocks(*arrays)
    return StateVector(lay.num_qubits, _fold(circuit_stages(tok, tgt, *matrices, phases))[0])


def circuit_expectation(instance: QsaInstance, counter: OpCounter | None = None) -> float:
    """All-zeros projector expectation of the fully simulated circuit:
    `dense_expectations` of this one sequence."""
    return float(dense_expectations(*_instance_arrays(instance), counter)[0])


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


def _instance_overlaps(instance: QsaInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One sequence's branch overlaps a_j, prefix weights M_j and phase
    diagonal, the weights checked by the dense route's preparation rule."""
    tok, tgt, v_matrix, w_matrix, phases = _instance_arrays(instance)
    a, weights, _ = _branch_overlaps_vjp(tok[0], tgt[0], v_matrix, w_matrix)
    _check_prefix_weights(weights)
    return a, weights, phases


def branch_overlaps(instance: QsaInstance) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch overlap amplitudes a_j and prefix weights M_j; a vanishing
    M_j raises the dense route's DegenerateInputError."""
    return _instance_overlaps(instance)[:2]


def analytic_expectation(instance: QsaInstance) -> float:
    """Expectation from the branch-overlap formula; equals circuit_expectation."""
    a, weights, phases = _instance_overlaps(instance)
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
    check_int_range(step, instance.num_steps, "step")
    tok, _, v_matrix, w_matrix, _ = _instance_arrays(instance)
    tok = tok[0, :step]
    coeff = tok[-1].conj() @ (w_matrix @ tok.T)
    z = (v_matrix @ tok.T) @ coeff
    weight = float(np.vdot(z, z).real)
    if weight <= ZERO_NORM_TOL ** 2:
        raise DegeneratePredictionError(f"prediction branch {step} has zero amplitude")
    return StateVector(z.size.bit_length() - 1, z / np.sqrt(weight)), weight


def score_candidates(state: StateVector, candidates) -> np.ndarray:
    """Squared overlaps of a predicted state with (k, d) candidate rows, such
    as the `amplitude_encode` of the vocabulary."""
    rows = _stacked_rows(candidates)
    if rows.shape[-1:] != state.amplitudes.shape:
        raise ConfigurationError(f"candidate rows {rows.shape} do not fit {state.amplitudes.size} amplitudes")
    return np.abs(rows.conj() @ state.amplitudes) ** 2
