"""Data-dependent state constructions.

Amplitude encodings of token vectors, entangled prefix encodings over the
paired data registers, the step-indexed input superposition, Householder
reflections with given first columns (one, or a register-controlled family
of them built in one pass), and plain computational-basis encodings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ZERO_NORM_TOL
from .errors import ConfigurationError, DegenerateInputError
from .statevector import (
    OpCounter,
    ReflectionBlock,
    ReflectionFamily,
    RegisterLayout,
    StateVector,
    apply_controlled_by_register,
    reflection_matrix,
)


@dataclass(frozen=True)
class EncodedToken:
    """A raw d-vector together with its normalized amplitude encoding."""

    raw: np.ndarray
    state: StateVector
    norm: float

    def __post_init__(self):
        raw = np.array(self.raw, dtype=complex).reshape(-1)
        raw.setflags(write=False)
        object.__setattr__(self, "raw", raw)


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
    return EncodedToken(vec, StateVector(num_qubits, vec / nrm), nrm)


def _householder(columns):
    """The normalized rows u_j of (rows, dim) ``columns`` and the reflections
    (v_j, phase_j) whose first columns they are.

    One Householder reflection H = I - v v^dag / v_1 maps e_1 to -u/phase,
    where phase is the phase of u's first entry (1 if that entry is zero), so
    -phase * H has first column u.  Row by row this is the same arithmetic,
    bit for bit, as taking one column at a time with `np.linalg.norm` and
    Python's ``abs``.
    """
    cols = np.asarray(columns, dtype=complex)
    if cols.ndim != 2:
        raise ConfigurationError(f"columns of shape {cols.shape} are not stacked as (rows, dim)")
    norms = np.sqrt(np.vecdot(cols.real, cols.real) + np.vecdot(cols.imag, cols.imag))
    if not np.all(np.isfinite(norms)):
        raise DegenerateInputError("first column has a non-finite norm")
    if not np.all(norms > ZERO_NORM_TOL):
        raise DegenerateInputError("first column must be a nonzero vector")
    unit = cols / norms[:, None]
    first = unit[:, 0]
    phase = np.ones_like(first)
    nonzero = first != 0
    phase[nonzero] = first[nonzero] / np.hypot(first[nonzero].real, first[nonzero].imag)
    # v = e_1 + u/phase has |v|^2 = 2 (1 + |u_1|) >= 2, so no cancellation.
    v = unit / phase[:, None]
    v[:, 0] += 1.0
    return unit, v, phase


def reflection_family(columns, targets: Sequence[int]) -> ReflectionFamily:
    """One reflection per row of (2**t, dim) ``columns``, each with that row,
    normalized, as its first column: the blocks of a register-controlled
    select, built, checked and applied as one family."""
    _, vectors, phases = _householder(columns)
    return ReflectionFamily(vectors, phases, targets)


def reflection_with_first_column(column, targets: Sequence[int]) -> ReflectionBlock:
    """A unitary on ``targets`` whose first column is the normalized ``column``.

    The one-row case of `reflection_family`: kept as its Householder vector
    and phase, so it is checked and applied in O(dim); the first column is u
    to round-off.
    """
    _, vectors, phases = _householder(np.reshape(column, (1, -1)))
    return ReflectionBlock(vectors[0], phases[0], targets)


def unitary_with_first_column(column) -> np.ndarray:
    """The dense view of `reflection_with_first_column`, for any length.

    The first column is set to u exactly; the others are a deterministic
    orthonormal completion.
    """
    unit, vector, phase = _householder(np.reshape(column, (1, -1)))
    out = reflection_matrix(vector[0], phase[0])
    out[:, 0] = unit[0]
    return out


def _doubled_prefix_sums(tokens: Sequence[EncodedToken], count: int) -> np.ndarray:
    """The raw sums sum_{i<=j} |x_i>|x_i> for j = 1..count as (count, 4**n) rows:
    one cumulative sum, the additions of a running sum in its order."""
    n = tokens[0].state.num_qubits
    if any(tok.state.num_qubits != n for tok in tokens):
        raise ConfigurationError("all tokens must use the same qubit count")
    amps = np.stack([tok.state.amplitudes for tok in tokens[:count]])
    doubled = amps[:, :, None] * amps[:, None, :]  # A in the low bits, B in the high bits
    return np.cumsum(doubled.reshape(len(amps), -1), axis=0)


def _normalized_prefixes(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows of (rows, 4**n) prefix sums and their raw squared norms M_j."""
    weights = np.vecdot(sums, sums).real
    if not np.all(weights > ZERO_NORM_TOL ** 2):
        raise DegenerateInputError("prefix encodings interfere to zero norm")
    return sums / np.sqrt(weights)[:, None], weights


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
    amplitudes, weights = _normalized_prefixes(_doubled_prefix_sums(tokens, prefix_len)[-1:])
    return StateVector(2 * tokens[0].state.num_qubits, amplitudes[0]), float(weights[0])


def prepare_input_superposition(
    tokens: Sequence[EncodedToken],
    num_steps: int,
    layout: RegisterLayout,
    counter: OpCounter | None = None,
) -> StateVector:
    """Uniform superposition over steps j, branch j carrying the prefix-j encoding.

    The t Hadamards on register C are written in closed form, 1/sqrt(T) on
    each step's basis state with A = B = 0, and recorded on ``counter`` as
    the t blocks of dimension 2 they stand for.  Then one register-controlled
    family of reflections, block j's first column the normalized prefix-j
    state.  The prefix states come from one cumulative sum, the same
    additions in the same order as `entangled_prefix_encoding`.
    """
    if num_steps < 2 or num_steps & (num_steps - 1):
        raise ConfigurationError("number of steps must be a power of two, at least 2")
    if num_steps != layout.num_steps:
        raise ConfigurationError(
            f"layout indexes {layout.num_steps} steps, got {num_steps}"
        )
    if len(tokens) < num_steps:
        raise ConfigurationError("need at least one token per step")
    if tokens[0].state.num_qubits != layout.n:
        raise ConfigurationError("token qubit count does not match register A")

    amplitudes = np.zeros(2 ** layout.num_qubits, dtype=complex)
    amplitudes[layout.step_indices()] = 1.0 / np.sqrt(num_steps)
    if counter is not None:
        for _ in layout.c_qubits:
            counter.record(2)
    state = StateVector(layout.num_qubits, amplitudes)
    prefixes, _ = _normalized_prefixes(_doubled_prefix_sums(tokens, num_steps))
    family = reflection_family(prefixes, layout.a_qubits + layout.b_qubits)
    return apply_controlled_by_register(state, layout.c_qubits, family, counter)


def basis_encode(word_index: int, num_qubits: int) -> StateVector:
    """The computational basis state |word_index> on ``num_qubits`` qubits."""
    if not 0 <= word_index < 2 ** num_qubits:
        raise ConfigurationError(
            f"index {word_index} outside 0..{2 ** num_qubits - 1}"
        )
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[word_index] = 1.0
    return StateVector(num_qubits, amps)
