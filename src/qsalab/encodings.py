"""Data-dependent state constructions.

Amplitude encodings of token vectors as unit rows (the package's one
normalization), entangled prefix encodings over the paired data registers,
the step-indexed input superposition (of one sequence, or of a batch as one
array), the checked Householder rows of reflections with given first
columns (any stack of them built in one pass).
"""

from __future__ import annotations

import numpy as np

from .data import ZERO_NORM_TOL, check_int_range
from .errors import ConfigurationError, DegenerateInputError
from .statevector import RegisterLayout, StateVector, _check_reflections, _reflection_select, reflection_matrix


def _stacked_rows(vectors) -> np.ndarray:
    """``vectors`` as one complex array, a scalar as one 1-vector; vectors that
    do not stack into one are a ConfigurationError."""
    try:
        return np.atleast_1d(np.asarray(vectors, dtype=complex))
    except (TypeError, ValueError):
        raise ConfigurationError("vectors do not stack into one array of rows") from None


def amplitude_encode(vectors, num_qubits: int | None) -> np.ndarray:
    """The unit rows of a (..., 2**n) stack of vectors: the amplitudes of their
    n-qubit states.  ``num_qubits`` None takes rows of any length, as the
    Householder step does.  A row's norm is sqrt(Re.Re + Im.Im), the bits of
    `np.linalg.norm` of that row."""
    rows = _stacked_rows(vectors)
    if num_qubits is not None and rows.shape[-1:] != (2 ** num_qubits,):
        raise ConfigurationError(f"vectors of shape {rows.shape} do not fit on {num_qubits} qubits")
    norms = np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))
    if not np.isfinite(norms).all():  # a NaN or infinite entry, or a norm that overflows
        raise DegenerateInputError("cannot amplitude-encode a vector with a non-finite norm")
    if not (norms > ZERO_NORM_TOL).all():
        raise DegenerateInputError("cannot amplitude-encode a zero vector")
    return rows / norms[..., None]


def reflection_rows(columns) -> tuple[np.ndarray, np.ndarray]:
    """The Householder vectors and phases of the reflections whose first
    columns are the unit rows u_j of (..., rows, dim) ``columns``: one
    vectorized step for every row, checked once.

    One Householder reflection H = I - v v^dag / v_1 maps e_1 to -u/phase,
    where phase is the phase of u's first entry (1 if that entry is zero), so
    -phase * H has first column u.  Row by row this is the same arithmetic,
    bit for bit, as taking one column at a time with `np.linalg.norm` and
    Python's ``abs``.  An inverse reflection only conjugates the phase
    (``I - v v^dag / v_1`` is Hermitian), so the same check covers it.
    """
    unit = amplitude_encode(columns, None)
    if unit.ndim < 2:
        raise ConfigurationError(f"columns of shape {unit.shape} are not stacked as (rows, dim)")
    first = unit[..., 0]
    phases = np.divide(first, np.hypot(first.real, first.imag), out=np.ones_like(first), where=first != 0)
    # v = e_1 + u/phase has |v|^2 = 2 (1 + |u_1|) >= 2, so no cancellation.
    vectors = unit / phases[..., None]
    vectors[..., 0] += 1.0
    _check_reflections(vectors.reshape(-1, vectors.shape[-1]), phases.reshape(-1))
    return vectors, phases


def unitary_with_first_column(column) -> np.ndarray:
    """The dense view of the one-row `reflection_rows`, for any length.

    The first column is set to u exactly; the others are a deterministic
    orthonormal completion.
    """
    vectors, phases = reflection_rows(np.reshape(column, (1, -1)))
    out = reflection_matrix(vectors[0], phases[0])
    out[:, 0] = amplitude_encode(np.ravel(column), None)
    return out


def _token_rows(tokens, count: int, name: str) -> np.ndarray:
    """The first ``count`` of (T, d) token rows, ``count`` checked by the step rule."""
    rows = _stacked_rows(tokens)
    if rows.ndim != 2:
        raise ConfigurationError(f"tokens of shape {rows.shape} are not stacked as (T, d) rows")
    check_int_range(count, len(rows), name)
    return rows[:count]


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


def entangled_prefix_encoding(tokens, prefix_len: int) -> tuple[StateVector, float]:
    """Normalized state proportional to sum_{i<=j} |x_i>|x_i> and its raw
    squared norm, for the first j = ``prefix_len`` of (T, d) unit token rows.

    The returned weight M_j is the squared norm of the unnormalized sum of
    doubled encodings, i.e. Re sum_{i,i'<=j} <x_i|x_i'>^2: the overlap of
    two doubled encodings is the square of the complex overlap, not its
    squared modulus.
    """
    rows = _token_rows(tokens, prefix_len, "prefix length")
    amplitudes, weights = _normalized_prefixes(_prefix_sums(rows)[-1:])
    return StateVector(amplitudes[0].size.bit_length() - 1, amplitudes[0]), float(weights[0])


def prepare_input_superposition(tokens, num_steps: int) -> StateVector:
    """Uniform superposition over steps j, branch j carrying the prefix-j encoding:
    `prepared_states` of this one sequence's first ``num_steps`` (T, d) unit token rows."""
    psi = prepared_states(_token_rows(tokens, num_steps, "step count")[None])[0]
    return StateVector(psi.size.bit_length() - 1, psi)


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
