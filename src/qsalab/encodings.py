"""Data-dependent state constructions.

Amplitude encodings of token vectors, a sequence's tokens as rows (the one
check that they share a qubit count), entangled prefix encodings over the
paired data registers, the step-indexed input superposition (of one
sequence, or of a batch as one array), the checked Householder rows of
reflections with given first columns (any stack of them built in one
pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ZERO_NORM_TOL
from .errors import ConfigurationError, DegenerateInputError
from .statevector import RegisterLayout, StateVector, _check_reflections, _reflection_select, reflection_matrix


@dataclass(frozen=True)
class EncodedToken:
    """The normalized amplitude encoding of a d-vector."""

    state: StateVector


def amplitude_encode(x, num_qubits: int) -> EncodedToken:
    """Encode a length-2**n vector into the amplitudes of an n-qubit state."""
    vec = np.asarray(x, dtype=complex).reshape(-1)
    if vec.size != 2 ** num_qubits:
        raise ConfigurationError(
            f"vector of dimension {vec.size} does not fit on {num_qubits} qubits"
        )
    nrm = float(np.linalg.norm(vec))
    if not np.isfinite(nrm):  # a NaN or infinite entry, or a norm that overflows
        raise DegenerateInputError("cannot amplitude-encode a vector with a non-finite norm")
    if nrm <= ZERO_NORM_TOL:
        raise DegenerateInputError("cannot amplitude-encode a zero vector")
    return EncodedToken(StateVector(num_qubits, vec / nrm))


def _householder(columns):
    """The normalized rows u_j of (..., rows, dim) ``columns`` and the
    reflections (v_j, phase_j) whose first columns they are.

    One Householder reflection H = I - v v^dag / v_1 maps e_1 to -u/phase,
    where phase is the phase of u's first entry (1 if that entry is zero), so
    -phase * H has first column u.  Row by row this is the same arithmetic,
    bit for bit, as taking one column at a time with `np.linalg.norm` and
    Python's ``abs``.
    """
    cols = np.asarray(columns, dtype=complex)
    if cols.ndim < 2:
        raise ConfigurationError(f"columns of shape {cols.shape} are not stacked as (rows, dim)")
    norms = np.sqrt(np.vecdot(cols.real, cols.real) + np.vecdot(cols.imag, cols.imag))
    if not np.isfinite(norms).all():
        raise DegenerateInputError("first column has a non-finite norm")
    if not (norms > ZERO_NORM_TOL).all():
        raise DegenerateInputError("first column must be a nonzero vector")
    unit = cols / norms[..., None]
    first = unit[..., 0]
    phase = np.divide(first, np.hypot(first.real, first.imag), out=np.ones_like(first), where=first != 0)
    # v = e_1 + u/phase has |v|^2 = 2 (1 + |u_1|) >= 2, so no cancellation.
    v = unit / phase[..., None]
    v[..., 0] += 1.0
    return unit, v, phase


def reflection_rows(columns) -> tuple[np.ndarray, np.ndarray]:
    """The Householder vectors and phases of the reflections whose first
    columns are the normalized rows of (..., rows, dim) ``columns``: one
    vectorized step for every row, checked once.  An inverse reflection
    only conjugates the phase (``I - v v^dag / v_1`` is Hermitian), so the
    same check covers it."""
    _, vectors, phases = _householder(columns)
    _check_reflections(vectors.reshape(-1, vectors.shape[-1]), phases.reshape(-1))
    return vectors, phases


def unitary_with_first_column(column) -> np.ndarray:
    """The dense view of the one-row `reflection_rows`, for any length.

    The first column is set to u exactly; the others are a deterministic
    orthonormal completion.
    """
    unit, vector, phase = _householder(np.reshape(column, (1, -1)))
    out = reflection_matrix(vector[0], phase[0])
    out[:, 0] = unit[0]
    return out


def token_rows(tokens: Sequence[EncodedToken]) -> np.ndarray:
    """The amplitudes of ``tokens`` stacked as (len(tokens), d) rows, (0, 0)
    for no tokens: the one check that a sequence's tokens share one qubit count."""
    counts = sorted({tok.state.num_qubits for tok in tokens})
    if len(counts) > 1:
        raise ConfigurationError(f"all tokens must use the same qubit count, got {counts}")
    return np.array([tok.state.amplitudes for tok in tokens]) if counts else np.zeros((0, 0), dtype=complex)


def _prefix_sums(amplitudes: np.ndarray) -> np.ndarray:
    """The raw sums sum_{i<=j} |x_i>|x_i> of (..., count, d) token rows for
    j = 1..count as (..., count, d**2) rows: one cumulative sum, the
    additions of a running sum in its order."""
    doubled = amplitudes[..., :, None] * amplitudes[..., None, :]  # A in the low bits, B in the high bits
    return np.cumsum(doubled.reshape(amplitudes.shape[:-1] + (-1,)), axis=-2)


def _check_prefix_weights(weights: np.ndarray) -> None:
    """The one rule for prefix weights M_j, on the dense and the analytic
    route: each must be finite and above ZERO_NORM_TOL**2."""
    if not np.all(np.isfinite(weights)):
        raise DegenerateInputError("prefix encodings have a non-finite norm")
    if not np.all(weights > ZERO_NORM_TOL ** 2):
        raise DegenerateInputError("prefix encodings interfere to zero norm")


def _normalized_prefixes(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows of (..., rows, 4**n) prefix sums and their raw squared norms M_j."""
    weights = np.vecdot(sums, sums).real
    _check_prefix_weights(weights)
    return sums / np.sqrt(weights)[..., None], weights


def entangled_prefix_encoding(
    tokens: Sequence[EncodedToken], prefix_len: int
) -> tuple[StateVector, float]:
    """Normalized state proportional to sum_{i<=j} |x_i>|x_i> and its raw squared norm.

    The returned weight M_j is the squared norm of the unnormalized sum of
    doubled encodings, i.e. Re sum_{i,i'<=j} <x_i|x_i'>^2: the overlap of
    two doubled encodings is the square of the complex overlap, not its
    squared modulus.
    """
    if not 1 <= prefix_len <= len(tokens):
        raise ConfigurationError(
            f"prefix length {prefix_len} outside 1..{len(tokens)}"
        )
    amplitudes, weights = _normalized_prefixes(_prefix_sums(token_rows(tokens)[:prefix_len])[-1:])
    return StateVector(2 * tokens[0].state.num_qubits, amplitudes[0]), float(weights[0])


def prepare_input_superposition(tokens: Sequence[EncodedToken], num_steps: int) -> StateVector:
    """Uniform superposition over steps j, branch j carrying the prefix-j encoding:
    `prepared_states` of this one sequence's first ``num_steps`` tokens."""
    if len(tokens) < num_steps:
        raise ConfigurationError("need at least one token per step")
    rows = token_rows(tokens)[:num_steps]
    layout = RegisterLayout.of(num_steps, rows.shape[-1])
    return StateVector(layout.num_qubits, prepared_states(rows[None])[0])


def prepared_states(unit_tokens: np.ndarray) -> np.ndarray:
    """The input superpositions of S sequences as one (S, 2**q) batch, from
    their (S, T, d) unit token rows.

    The t Hadamards on register C are written in closed form, 1/sqrt(T) on
    each step's basis state with A = B = 0.  Then each sequence's
    register-controlled select of reflections, row j's first column its
    normalized prefix-j state, all in one batched select.  The prefix
    states come from one cumulative sum, the same additions in the same
    order as `entangled_prefix_encoding`.
    """
    layout = RegisterLayout.of(*unit_tokens.shape[-2:])
    vectors, phases = reflection_rows(_normalized_prefixes(_prefix_sums(unit_tokens))[0])
    psi = np.zeros((unit_tokens.shape[0], 2 ** layout.num_qubits), dtype=complex)
    psi[:, layout.step_indices] = 1.0 / np.sqrt(layout.num_steps)
    return _reflection_select(psi, layout.c_qubits, layout.a_qubits + layout.b_qubits, vectors, phases)
