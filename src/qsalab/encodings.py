"""Data-dependent state constructions.

Amplitude encodings of token vectors, entangled prefix encodings over the
paired data registers, the step-indexed input superposition, Householder
reflections with a given first column, and plain computational-basis
encodings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ZERO_NORM_TOL
from .errors import ConfigurationError, DegenerateInputError
from .statevector import (
    HADAMARD,
    OpCounter,
    ReflectionBlock,
    RegisterLayout,
    StateVector,
    UnitaryBlock,
    apply_controlled_by_register,
    apply_unitary,
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
    if nrm <= ZERO_NORM_TOL:
        raise DegenerateInputError("cannot amplitude-encode a zero vector")
    return EncodedToken(vec, StateVector(num_qubits, vec / nrm), nrm)


def _householder(column):
    """The normalized ``column`` u and the reflection (v, phase) whose first column is u.

    One Householder reflection H = I - v v^dag / v_1 maps e_1 to -u/phase,
    where phase is the phase of u's first entry (1 if that entry is zero), so
    -phase * H has first column u.
    """
    col = np.asarray(column, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(col)
    if nrm <= ZERO_NORM_TOL:
        raise DegenerateInputError("first column must be a nonzero vector")
    unit = col / nrm
    phase = unit[0] / abs(unit[0]) if unit[0] != 0 else 1.0
    # v = e_1 + u/phase has |v|^2 = 2 (1 + |u_1|) >= 2, so no cancellation.
    v = unit / phase
    v[0] += 1.0
    return unit, v, phase


def reflection_with_first_column(column, targets: Sequence[int]) -> ReflectionBlock:
    """A unitary on ``targets`` whose first column is the normalized ``column``.

    Kept as its Householder vector and phase, so it is checked and applied
    in O(dim); the first column is u to round-off.
    """
    _, vector, phase = _householder(column)
    return ReflectionBlock(vector, phase, targets)


def unitary_with_first_column(column) -> np.ndarray:
    """The dense view of `reflection_with_first_column`, for any length.

    The first column is set to u exactly; the others are a deterministic
    orthonormal completion.
    """
    unit, vector, phase = _householder(column)
    out = reflection_matrix(vector, phase)
    out[:, 0] = unit
    return out


def _doubled_prefix_sums(tokens: Sequence[EncodedToken], count: int):
    """The raw sums sum_{i<=j} |x_i>|x_i> for j = 1..count, as one running sum."""
    n = tokens[0].state.num_qubits
    if any(tok.state.num_qubits != n for tok in tokens):
        raise ConfigurationError("all tokens must use the same qubit count")
    vec = np.zeros(4 ** n, dtype=complex)
    for tok in tokens[:count]:
        s = tok.state.amplitudes
        vec = vec + np.kron(s, s)  # A in the low bits, B in the high bits
        yield vec


def _normalized_prefix(vec: np.ndarray) -> tuple[np.ndarray, float]:
    weight = float(np.vdot(vec, vec).real)
    if weight <= ZERO_NORM_TOL ** 2:
        raise DegenerateInputError("prefix encodings interfere to zero norm")
    return vec / np.sqrt(weight), weight


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
    *_, vec = _doubled_prefix_sums(tokens, prefix_len)
    amplitudes, weight = _normalized_prefix(vec)
    return StateVector(2 * tokens[0].state.num_qubits, amplitudes), weight


def prepare_input_superposition(
    tokens: Sequence[EncodedToken],
    num_steps: int,
    layout: RegisterLayout,
    counter: OpCounter | None = None,
) -> StateVector:
    """Uniform superposition over steps j, branch j carrying the prefix-j encoding.

    Built the way the circuit does it: Hadamards on register C, then one
    register-controlled reflection per step whose first column is the
    normalized prefix state.  The prefix states come from one running sum,
    the same additions in the same order as `entangled_prefix_encoding`.
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

    state = StateVector.zero(layout.num_qubits)
    for q in layout.c_qubits:
        state = apply_unitary(state, UnitaryBlock(HADAMARD, (q,)), counter)
    targets = layout.a_qubits + layout.b_qubits
    blocks = {}
    for j, vec in enumerate(_doubled_prefix_sums(tokens, num_steps)):
        prefix, _ = _normalized_prefix(vec)
        blocks[j] = reflection_with_first_column(prefix, targets)
    return apply_controlled_by_register(state, layout.c_qubits, blocks, counter)


def basis_encode(word_index: int, num_qubits: int) -> StateVector:
    """The computational basis state |word_index> on ``num_qubits`` qubits."""
    if not 0 <= word_index < 2 ** num_qubits:
        raise ConfigurationError(
            f"index {word_index} outside 0..{2 ** num_qubits - 1}"
        )
    amps = np.zeros(2 ** num_qubits, dtype=complex)
    amps[word_index] = 1.0
    return StateVector(num_qubits, amps)
